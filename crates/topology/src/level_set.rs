//! Output-sensitive level-set queries (paper Section 3.2).
//!
//! Given a merge tree, the super-level set `f⁻¹([θ, ∞))` is extracted by a
//! descending traversal that starts at the maxima with `f ≥ θ` (the join
//! tree's leaves, stored in sweep order so the valid prefix is found in
//! `O(|V⁺|)`) and floods across neighbours still above the threshold. Only
//! vertices belonging to the answer are touched, so query time is linear in
//! the output size. Sub-level sets are symmetric via the split tree.
//!
//! # Feature sets are a pointwise scan
//!
//! Indexing does not extract its feature sets through the trees. Under one
//! threshold per seasonal interval (paper Section 3.3, "Adjusting for
//! Seasonal Variations") the member set is `{v : f(v) ≥ θ(step of v)}`,
//! and a component of it next to an interval boundary need not contain a
//! local maximum of `f` — its highest vertex can have a larger neighbour
//! that fails the *other* interval's threshold — so a flood has to start
//! from the member vertices of every boundary step as well as from the
//! leaves. So seeded, it finds every member. Let `w` be the highest vertex
//! of a component of the member set: each neighbour `u` of `w` outside the
//! set is undefined, or under `w`'s own threshold (`f(u) < θ ≤ f(w)`), or
//! across a boundary. If one is across a boundary, `w` is a boundary seed;
//! if none is, no defined neighbour is higher than `w`, and `w` is a leaf
//! of the join tree. The flood therefore returns exactly the member set,
//! which [`crate::FeatureSets::scan`] reads off the values directly —
//! every feature class in one pass, no tree, no graph. The flood survives
//! in this module's tests as the scan's reference.

use crate::bitvec::BitVec;
use crate::graph::DomainGraph;
use crate::merge_tree::MergeTree;

/// Extracts the super-level set at `theta` as a bit vector over vertices.
///
/// `tree` must be the join tree of `f`.
pub fn super_level_set(graph: &DomainGraph, f: &[f64], tree: &MergeTree, theta: f64) -> BitVec {
    per_step_traverse(graph, f, &tree.leaves, &|v| f[v] >= theta)
}

/// Extracts the sub-level set at `theta`. `tree` must be the split tree.
pub fn sub_level_set(graph: &DomainGraph, f: &[f64], tree: &MergeTree, theta: f64) -> BitVec {
    per_step_traverse(graph, f, &tree.leaves, &|v| f[v] <= theta)
}

/// Pointwise feature membership for `K` threshold pairs at once.
///
/// `values` is time-major with `n_regions` values per step, and
/// `thetas_of_step(z)` gives step `z`'s `(θ⁺, θ⁻)` pairs. Pair `k` of the
/// result is `(f ≥ θ⁺ₖ, f ≤ θ⁻ₖ)` over all vertices, laid out region-major
/// (bit `x · n_steps + z` is region `x` at step `z`, see
/// [`BitVec::region_major`]); a NaN on either side of a comparison is "not
/// a feature". The scan reads the values in order; the bits it writes for
/// one step lie one per row, in words the previous step wrote too.
///
/// # Panics
///
/// Unless `values` holds a whole number of steps.
pub(crate) fn threshold_scan<const K: usize>(
    values: &[f64],
    n_regions: usize,
    mut thetas_of_step: impl FnMut(usize) -> [(f64, f64); K],
) -> [(BitVec, BitVec); K] {
    let n_regions = n_regions.max(1);
    assert_eq!(
        values.len() % n_regions,
        0,
        "a field of {} values is not whole steps of {n_regions} regions",
        values.len()
    );
    let n_steps = values.len() / n_regions;
    let n_words = values.len().div_ceil(64);
    let mut words: [(Vec<u64>, Vec<u64>); K] =
        std::array::from_fn(|_| (vec![0; n_words], vec![0; n_words]));
    for (z, step) in values.chunks(n_regions).enumerate() {
        let thetas = thetas_of_step(z);
        let mut v = z;
        for &x in step {
            for ((pos, neg), &(theta_pos, theta_neg)) in words.iter_mut().zip(&thetas) {
                pos[v / 64] |= u64::from(x >= theta_pos) << (v % 64);
                neg[v / 64] |= u64::from(x <= theta_neg) << (v % 64);
            }
            v += n_steps;
        }
    }
    let set = |words| {
        BitVec::from_words(values.len(), words).expect("the scan filled exactly `len` bits")
    };
    words.map(|(pos, neg)| (set(pos), set(neg)))
}

/// Flood traversal from the extrema that satisfy the membership predicate.
///
/// Every connected component of the answer contains at least one extremum
/// of the appropriate kind (its own max/min), so seeding from the tree's
/// leaves covers the full level set while touching only member vertices —
/// the output-sensitive property the paper's index provides.
fn per_step_traverse(
    graph: &DomainGraph,
    f: &[f64],
    leaves: &[u32],
    member: &dyn Fn(usize) -> bool,
) -> BitVec {
    let mut out = BitVec::zeros(graph.vertex_count());
    let mut stack: Vec<u32> = Vec::new();
    for &leaf in leaves {
        let lv = leaf as usize;
        if f[lv].is_nan() || !member(lv) || out.get(lv) {
            continue;
        }
        out.set(lv);
        stack.push(leaf);
        while let Some(v) = stack.pop() {
            for u in graph.neighbors(v as usize) {
                let ui = u as usize;
                if !out.get(ui) && !f[ui].is_nan() && member(ui) {
                    out.set(ui);
                    stack.push(u);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_tree::MergeTree;

    fn figure2() -> (DomainGraph, Vec<f64>) {
        let g = DomainGraph::time_series(9);
        let f = vec![0.0, 5.0, 2.5, 4.5, 3.0, 4.0, 1.0, 6.0, 0.5];
        (g, f)
    }

    #[test]
    fn super_level_matches_brute_force() {
        let (g, f) = figure2();
        let tree = MergeTree::join(&g, &f);
        for theta in [-1.0, 0.0, 0.9, 2.0, 3.5, 4.5, 5.5, 6.0, 7.0] {
            let got = super_level_set(&g, &f, &tree, theta);
            for (v, &fv) in f.iter().enumerate() {
                assert_eq!(
                    got.get(v),
                    fv >= theta,
                    "theta={theta} vertex={v} value={fv}"
                );
            }
        }
    }

    #[test]
    fn sub_level_matches_brute_force() {
        let (g, f) = figure2();
        let tree = MergeTree::split(&g, &f);
        for theta in [-1.0, 0.0, 0.6, 1.5, 3.0, 5.0, 6.5] {
            let got = sub_level_set(&g, &f, &tree, theta);
            for (v, &fv) in f.iter().enumerate() {
                assert_eq!(got.get(v), fv <= theta, "theta={theta} vertex={v}");
            }
        }
    }

    #[test]
    fn figure2_component_counts() {
        // Paper Figure 2(b)/(c): 4 components at f1, 3 at f2.
        let (g, f) = figure2();
        let tree = MergeTree::join(&g, &f);
        // f1 just below all four maxima: e.g. 3.5 keeps v2, v4, v6, v8
        // separated (saddles are at 3.0, 2.5, 1.0).
        let at_f1 = super_level_set(&g, &f, &tree, 3.5);
        assert_eq!(count_components(&g, &at_f1), 4);
        // f2 between the v5 saddle (3.0) and the v3 saddle (2.5): v4 and v6
        // have merged, 3 components remain.
        let at_f2 = super_level_set(&g, &f, &tree, 2.7);
        assert_eq!(count_components(&g, &at_f2), 3);
    }

    fn count_components(g: &DomainGraph, set: &BitVec) -> usize {
        let mut seen = BitVec::zeros(set.len());
        let mut n = 0;
        let mut stack = Vec::new();
        for v in set.iter_ones() {
            if seen.get(v) {
                continue;
            }
            n += 1;
            seen.set(v);
            stack.push(v);
            while let Some(x) = stack.pop() {
                for u in g.neighbors(x) {
                    let ui = u as usize;
                    if set.get(ui) && !seen.get(ui) {
                        seen.set(ui);
                        stack.push(ui);
                    }
                }
            }
        }
        n
    }

    #[test]
    fn grid_super_level() {
        let g = DomainGraph::grid(4, 4, 2);
        let f: Vec<f64> = (0..g.vertex_count())
            .map(|v| ((v * 7 + 3) % 11) as f64)
            .collect();
        let tree = MergeTree::join(&g, &f);
        let got = super_level_set(&g, &f, &tree, 8.0);
        for (v, &fv) in f.iter().enumerate() {
            assert_eq!(got.get(v), fv >= 8.0, "vertex {v}");
        }
    }

    #[test]
    fn nan_vertices_never_members() {
        let g = DomainGraph::time_series(5);
        let f = vec![5.0, f64::NAN, 4.0, 3.0, 6.0];
        let tree = MergeTree::join(&g, &f);
        let got = super_level_set(&g, &f, &tree, 2.0);
        assert!(got.get(0) && got.get(2) && got.get(3) && got.get(4));
        assert!(!got.get(1));
    }

    /// The tree-driven seasonal extraction the index used before the scan,
    /// kept as the scan's reference: vertex `(x, z)` is a member iff
    /// `f(x, z) >= theta_of_step[z]` (NaN threshold = no features in that
    /// step), found by a flood seeded from the tree leaves *and* from the
    /// member vertices at interval-boundary steps.
    fn super_level_set_seasonal(
        graph: &DomainGraph,
        f: &[f64],
        tree: &MergeTree,
        theta_of_step: &[f64],
    ) -> BitVec {
        let n = graph.n_regions;
        let member = |v: usize| {
            let theta = theta_of_step[v / n];
            !theta.is_nan() && f[v] >= theta
        };
        let seeds = seasonal_seeds(graph, theta_of_step, &tree.leaves, &member);
        per_step_traverse(graph, f, &seeds, &member)
    }

    /// Sub-level counterpart of [`super_level_set_seasonal`].
    fn sub_level_set_seasonal(
        graph: &DomainGraph,
        f: &[f64],
        tree: &MergeTree,
        theta_of_step: &[f64],
    ) -> BitVec {
        let n = graph.n_regions;
        let member = |v: usize| {
            let theta = theta_of_step[v / n];
            !theta.is_nan() && f[v] <= theta
        };
        let seeds = seasonal_seeds(graph, theta_of_step, &tree.leaves, &member);
        per_step_traverse(graph, f, &seeds, &member)
    }

    /// Tree leaves plus member vertices at steps where the threshold changes.
    fn seasonal_seeds(
        graph: &DomainGraph,
        theta_of_step: &[f64],
        leaves: &[u32],
        member: &dyn Fn(usize) -> bool,
    ) -> Vec<u32> {
        let n = graph.n_regions;
        let mut seeds = leaves.to_vec();
        for z in 1..graph.n_steps {
            if theta_of_step[z].to_bits() != theta_of_step[z - 1].to_bits() {
                for x in 0..n {
                    for step in [z - 1, z] {
                        let v = step * n + x;
                        if member(v) {
                            seeds.push(v as u32);
                        }
                    }
                }
            }
        }
        seeds
    }

    /// The scan's super-level side under per-step thresholds, checked
    /// against the reference flood on the way out.
    fn scanned_super(g: &DomainGraph, f: &[f64], theta_of_step: &[f64]) -> BitVec {
        let [(pos, neg)] = threshold_scan(f, g.n_regions, |z| [(theta_of_step[z], f64::NAN)]);
        let join = MergeTree::join(g, f);
        assert_eq!(pos, super_level_set_seasonal(g, f, &join, theta_of_step));
        assert_eq!(neg.count_ones(), 0);
        pos
    }

    #[test]
    fn seasonal_thresholds_vary_by_step() {
        // One region, 6 steps, two "seasons" of 3 steps each.
        let g = DomainGraph::time_series(6);
        let f = vec![1.0, 5.0, 2.0, 10.0, 50.0, 20.0];
        // Season 1 threshold 4.0, season 2 threshold 40.0.
        let theta = vec![4.0, 4.0, 4.0, 40.0, 40.0, 40.0];
        let got = scanned_super(&g, &f, &theta);
        let members: Vec<usize> = got.iter_ones().collect();
        assert_eq!(members, vec![1, 4]);
    }

    #[test]
    fn seasonal_component_without_local_maximum_is_found() {
        // f increases monotonically; the only local max is the last vertex,
        // which fails its own interval's threshold. The component {0, 1}
        // has no local max of f: the flood reaches it only via boundary
        // seeding, the scan without noticing.
        let g = DomainGraph::time_series(4);
        let f = vec![1.0, 2.0, 3.0, 4.0];
        let theta = vec![0.0, 0.0, 100.0, 100.0];
        let got = scanned_super(&g, &f, &theta);
        let members: Vec<usize> = got.iter_ones().collect();
        assert_eq!(members, vec![0, 1]);
    }

    #[test]
    fn seasonal_nan_threshold_blocks_step() {
        let g = DomainGraph::time_series(4);
        let f = vec![10.0, 20.0, 30.0, 40.0];
        let theta = vec![5.0, f64::NAN, 5.0, 5.0];
        let got = scanned_super(&g, &f, &theta);
        assert!(got.get(0) && !got.get(1) && got.get(2) && got.get(3));
    }

    #[test]
    fn scan_matches_single_theta_level_sets() {
        // The single-θ form against the paper's tree-driven query, across
        // word boundaries (130 vertices) and with undefined values.
        let g = DomainGraph::grid(5, 2, 13);
        let f: Vec<f64> = (0..g.vertex_count())
            .map(|v| match (v * 7 + 3) % 11 {
                10 => f64::NAN,
                r => r as f64,
            })
            .collect();
        let (join, split) = MergeTree::both(&g, &f);
        for (theta_pos, theta_neg) in [(8.0, 2.0), (0.0, 9.0), (f64::NAN, 4.0), (11.0, -1.0)] {
            let [(pos, neg)] = threshold_scan(&f, f.len(), |_| [(theta_pos, theta_neg)]);
            assert_eq!(pos, super_level_set(&g, &f, &join, theta_pos));
            assert_eq!(neg, sub_level_set(&g, &f, &split, theta_neg));
        }
    }

    #[test]
    fn scan_of_an_empty_field_is_empty() {
        for n_regions in [0, 3] {
            let [(pos, neg)] = threshold_scan(&[], n_regions, |_| [(0.0, 0.0)]);
            assert!(pos.is_empty() && neg.is_empty());
        }
    }

    mod scan_equals_the_seasonal_flood {
        use super::*;
        use crate::features::FeatureSets;
        use crate::threshold::{SeasonalThresholds, Thresholds};
        use proptest::prelude::*;

        /// Decodes a drawn byte: small integers (long tie runs, thresholds
        /// hit exactly), `-0.0`, and NaN twice as often as any of them.
        fn value(code: u8) -> f64 {
            match code {
                0..=8 => f64::from(code) - 4.0,
                9 => -0.0,
                _ => f64::NAN,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// All four feature sets of the fused scan equal the four
            /// floods, on 2-D fields with undefined values, NaN thresholds,
            /// an interval without thresholds and arbitrary boundaries.
            #[test]
            fn on_random_fields(
                nx in 1usize..4,
                ny in 1usize..3,
                n_steps in 1usize..9,
                values in prop::collection::vec(0u8..12, 6 * 8),
                intervals in prop::collection::vec(0i64..4, 8),
                thetas in prop::collection::vec(0u8..12, 3 * 4),
            ) {
                let values: Vec<f64> = values.iter().map(|&code| value(code)).collect();
                let per_interval = thetas
                    .chunks(4)
                    .map(|t| Thresholds {
                        salient_pos: value(t[0]),
                        salient_neg: value(t[1]),
                        extreme_pos: value(t[2]),
                        extreme_neg: value(t[3]),
                    })
                    .collect();
                let g = DomainGraph::grid(nx, ny, n_steps);
                let f = &values[..g.vertex_count()];
                // Interval 3 has no entry: its steps carry no features.
                let thresholds = SeasonalThresholds {
                    interval_of_step: intervals[..n_steps].to_vec(),
                    interval_ids: vec![0, 1, 2],
                    per_interval,
                };
                let (join, split) = MergeTree::both(&g, f);
                let per_step = |pick: fn(&Thresholds) -> f64| -> Vec<f64> {
                    (0..n_steps).map(|z| pick(&thresholds.of_step(z))).collect()
                };
                let got = FeatureSets::scan(f, g.n_regions, &thresholds);
                // The floods are time-major; the scan writes region-major.
                let rows = |flood: BitVec| flood.region_major(g.n_regions, n_steps);
                prop_assert_eq!(
                    got.salient.pos,
                    rows(super_level_set_seasonal(&g, f, &join, &per_step(|t| t.salient_pos)))
                );
                prop_assert_eq!(
                    got.salient.neg,
                    rows(sub_level_set_seasonal(&g, f, &split, &per_step(|t| t.salient_neg)))
                );
                prop_assert_eq!(
                    got.extreme.pos,
                    rows(super_level_set_seasonal(&g, f, &join, &per_step(|t| t.extreme_pos)))
                );
                prop_assert_eq!(
                    got.extreme.neg,
                    rows(sub_level_set_seasonal(&g, f, &split, &per_step(|t| t.extreme_neg)))
                );
            }
        }
    }

    #[test]
    fn empty_result_touches_nothing() {
        let (g, f) = figure2();
        let tree = MergeTree::join(&g, &f);
        let got = super_level_set(&g, &f, &tree, 100.0);
        assert_eq!(got.count_ones(), 0);
    }
}
