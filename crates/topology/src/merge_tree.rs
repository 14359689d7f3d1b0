//! Merge-tree construction (paper Section 3, Procedure *ComputeJoinTree*).
//!
//! The *join tree* tracks connected components of super-level sets as the
//! function value decreases; the *split tree* tracks sub-level sets as it
//! increases. Both are computed by one sweep over the vertices in sweep
//! order with a union-find, in `O(N log N + N α(N))`. The split order is
//! the join order reversed, so [`MergeTree::both`] sorts once and sweeps
//! the one order in both directions. The sort skips the run of `+0.0`
//! values (every empty cell of a count function, most of a sparse field):
//! that run is already in tie order and is spliced in at its place, so the
//! `N log N` term is over the other values only.
//!
//! Morse-condition handling (paper Appendix B.1): PL functions on graphs
//! routinely violate the "distinct critical values" condition, so we impose
//! a *simulated perturbation* total order — ties broken by vertex index —
//! which is exactly the infinitesimal-offset construction of the paper.
//! Degenerate (multi-way) merges are processed as iterated simple saddles.
//!
//! Persistence pairing applies the elder rule: at a merge, the component
//! whose creator came *earliest in the sweep* survives; every younger
//! creator is paired with the saddle. (The paper's prose — "the component
//! created last … is considered to be destroyed" — specifies the elder
//! rule; we follow it. Line 16 of the printed pseudocode pairs the opposite
//! creator, which contradicts the prose and the worked example of
//! Figure 4; we treat that as a typo.)
//!
//! Vertices with undefined values (NaN) are excluded from the sweep: the PL
//! function is only defined where data exists, and the domain may therefore
//! be disconnected — each connected piece closes its own essential pair.

use crate::error::{Error, Result};
use crate::graph::DomainGraph;
use crate::persistence::PersistencePair;
use crate::union_find::UnionFind;

/// Which merge tree to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Join tree: super-level sets, leaves are maxima.
    Join,
    /// Split tree: sub-level sets, leaves are minima.
    Split,
}

/// Role of a critical point in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An extremum (maximum in a join tree, minimum in a split tree).
    Leaf,
    /// A merge saddle (destroyer).
    Saddle,
    /// The final vertex of a connected component's sweep (global minimum in
    /// a join tree, global maximum in a split tree).
    Root,
}

/// A node of the merge tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeNode {
    /// Domain-graph vertex this critical point lives at.
    pub vertex: u32,
    /// Function value at the vertex.
    pub value: f64,
    /// Node role.
    pub kind: NodeKind,
}

/// A join or split tree with persistence pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeTree {
    /// Join or split.
    pub direction: Direction,
    /// Critical points, in sweep-discovery order.
    pub nodes: Vec<TreeNode>,
    /// Arcs `(from, to)` as node indices; `from` is the upper node (head of
    /// the merging component), `to` the saddle/root below it.
    pub arcs: Vec<(u32, u32)>,
    /// Persistence pairs (one per leaf).
    pub pairs: Vec<PersistencePair>,
    /// Leaf (extremum) vertices in sweep order: descending function value
    /// for join trees, ascending for split trees.
    pub leaves: Vec<u32>,
}

impl MergeTree {
    /// Computes the join tree of `f` over `graph`.
    pub fn join(graph: &DomainGraph, f: &[f64]) -> Self {
        Self::sweep(graph, f, Direction::Join, &ascending_order(f))
    }

    /// Computes the split tree of `f` over `graph`.
    pub fn split(graph: &DomainGraph, f: &[f64]) -> Self {
        Self::sweep(graph, f, Direction::Split, &ascending_order(f))
    }

    /// Computes the join and the split tree of `f` over `graph` from one
    /// sort: `(join, split)`, each equal to what [`MergeTree::join`] and
    /// [`MergeTree::split`] return.
    pub fn both(graph: &DomainGraph, f: &[f64]) -> (Self, Self) {
        let order = ascending_order(f);
        (
            Self::sweep(graph, f, Direction::Join, &order),
            Self::sweep(graph, f, Direction::Split, &order),
        )
    }

    /// Number of critical points.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Persistence values, aligned with [`MergeTree::pairs`].
    pub fn persistence_values(&self) -> Vec<f64> {
        self.pairs
            .iter()
            .map(PersistencePair::persistence)
            .collect()
    }

    /// The persistence pair created by `extremum`, or
    /// [`Error::MissingPair`] when that vertex created no component (it is
    /// not a leaf of this tree).
    pub fn pair_of(&self, extremum: u32) -> Result<PersistencePair> {
        self.pairs
            .iter()
            .find(|p| p.extremum == extremum)
            .copied()
            .ok_or(Error::MissingPair { extremum })
    }

    /// One sweep over `order` (ascending; see [`ascending_order`]): forwards
    /// for the split tree, backwards for the join tree.
    fn sweep(graph: &DomainGraph, f: &[f64], direction: Direction, order: &[(u64, u32)]) -> Self {
        let nv = graph.vertex_count();
        assert_eq!(f.len(), nv, "function length must match vertex count");
        let swept = |pos: usize| match direction {
            Direction::Join => order[order.len() - 1 - pos].1,
            Direction::Split => order[pos].1,
        };

        // The swept vertices, partitioned into the components of the
        // current level set.
        let mut components: UnionFind<Component> = UnionFind::new(nv);
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut arcs: Vec<(u32, u32)> = Vec::new();
        let mut pairs: Vec<PersistencePair> = Vec::new();
        let mut leaves: Vec<u32> = Vec::new();
        let mut roots_scratch: Vec<u32> = Vec::new();
        let pair = |extremum: u32, partner: u32| PersistencePair {
            extremum,
            partner,
            birth: f[extremum as usize],
            death: f[partner as usize],
        };

        for pos in 0..order.len() {
            let v = swept(pos);
            // Distinct components among already-swept neighbours.
            roots_scratch.clear();
            for u in graph.neighbors(v as usize) {
                if components.contains(u) {
                    let r = components.find(u);
                    if !roots_scratch.contains(&r) {
                        roots_scratch.push(r);
                    }
                }
            }
            let node = nodes.len() as u32;
            let critical = |kind| TreeNode {
                vertex: v,
                value: f[v as usize],
                kind,
            };
            match roots_scratch[..] {
                [] => {
                    // v is an extremum: creator of a new component.
                    nodes.push(critical(NodeKind::Leaf));
                    leaves.push(v);
                    let born = Component {
                        creator: v,
                        born: pos as u32,
                        head: node,
                        lowest: v,
                    };
                    components.insert(v, born);
                }
                [r] => {
                    // Regular vertex: extend the component.
                    components.attach(v, r);
                    components.payload_mut(r).lowest = v;
                }
                _ => {
                    // Saddle: merge all components meeting at v. The
                    // survivor is the eldest creator (earliest in the
                    // sweep); every younger creator is paired with v.
                    nodes.push(critical(NodeKind::Saddle));
                    let eldest = roots_scratch
                        .iter()
                        .map(|&r| *components.payload(r))
                        .min_by_key(|c| c.born)
                        .expect("a saddle joins components");
                    let mut merged = roots_scratch[0];
                    for &r in &roots_scratch {
                        let c = *components.payload(r);
                        arcs.push((c.head, node));
                        if c.creator != eldest.creator {
                            pairs.push(pair(c.creator, v));
                        }
                        merged = components.union(merged, r);
                    }
                    components.attach(v, merged);
                    *components.payload_mut(merged) = Component {
                        head: node,
                        lowest: v,
                        ..eldest
                    };
                }
            }
        }

        // Close the essential pair of every connected component: its creator
        // (global extremum of the piece) pairs with the piece's final swept
        // vertex. A piece's first swept vertex is the leaf that ends up as
        // its creator, so the leaves that still own their component are the
        // pieces, in the order the sweep met them.
        for &leaf in &leaves {
            let root = components.find(leaf);
            let piece = *components.payload(root);
            if piece.creator != leaf {
                continue;
            }
            pairs.push(pair(leaf, piece.lowest));
            // The final vertex becomes the root node unless it already is a
            // node: a lone leaf, or a saddle that ended the sweep — which is
            // then the component's last critical point, its head.
            if nodes[piece.head as usize].vertex != piece.lowest {
                arcs.push((piece.head, nodes.len() as u32));
                nodes.push(TreeNode {
                    vertex: piece.lowest,
                    value: f[piece.lowest as usize],
                    kind: NodeKind::Root,
                });
            }
        }

        Self {
            direction,
            nodes,
            arcs,
            pairs,
            leaves,
        }
    }
}

/// What the sweep knows about one component of the current level set.
#[derive(Debug, Clone, Copy)]
struct Component {
    /// Leaf vertex that created the component (of the eldest one merged in).
    creator: u32,
    /// Sweep position of `creator`.
    born: u32,
    /// Node index of the component's last critical point.
    head: u32,
    /// Last vertex swept in the component.
    lowest: u32,
}

/// Maps a value to a `u64` whose unsigned order is `f64::total_cmp`'s.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negative values: flip everything (larger magnitude sorts lower);
    // positive values: move above every negative.
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// `total_order_key(+0.0)`: the key of every empty count cell.
const ZERO_KEY: u64 = 1 << 63;

/// The defined (non-NaN) vertices as `(key, vertex)` in ascending
/// simulated-perturbation order — value by `total_cmp`, ties by vertex
/// index — which is the split tree's sweep order and the join tree's
/// reversed. Keys compare as plain integers, and the stable sort keeps the
/// index order it starts from within a tie.
///
/// Only the keys that are not `+0.0` are sorted. The `+0.0` vertices —
/// most of a sparse count field — are one tie run already in index order,
/// so they are spliced in where the sorted keys cross [`ZERO_KEY`].
fn ascending_order(f: &[f64]) -> Vec<(u64, u32)> {
    let mut order: Vec<(u64, u32)> = Vec::with_capacity(f.len());
    let mut zeros = 0;
    for (v, &x) in f.iter().enumerate() {
        if x.to_bits() == 0 {
            zeros += 1;
        } else if !x.is_nan() {
            order.push((total_order_key(x), v as u32));
        }
    }
    order.sort_by_key(|&(key, _)| key);
    let (at, sorted) = (
        order.partition_point(|&(key, _)| key < ZERO_KEY),
        order.len(),
    );
    order.resize(sorted + zeros, (ZERO_KEY, 0));
    order.copy_within(at..sorted, at + zeros);
    let zero_run = f.iter().enumerate().filter(|(_, x)| x.to_bits() == 0);
    for (slot, (v, _)) in order[at..at + zeros].iter_mut().zip(zero_run) {
        *slot = (ZERO_KEY, v as u32);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1-D function of paper Figure 2(a): components are created at v8,
    /// v2, v4, v6 in that order during the descending sweep, and the first
    /// merge happens at v5 (v4's and v6's components), exactly as the
    /// paper's Section 3.1 walkthrough and Figure 4 describe.
    ///
    /// Index:  0    1    2    3    4    5    6    7    8
    /// Vertex: v1   v2   v3   v4   v5   v6   v7   v8   v9
    /// Value:  0.0  5.0  2.5  4.5  3.0  4.0  1.0  6.0  0.5
    fn figure2_function() -> (DomainGraph, Vec<f64>) {
        let g = DomainGraph::time_series(9);
        let f = vec![0.0, 5.0, 2.5, 4.5, 3.0, 4.0, 1.0, 6.0, 0.5];
        (g, f)
    }

    #[test]
    fn figure2_join_tree_structure() {
        let (g, f) = figure2_function();
        let t = MergeTree::join(&g, &f);
        assert_eq!(t.direction, Direction::Join);
        // Maxima: v2, v4, v6, v8 = indices 1, 3, 5, 7.
        assert_eq!(t.leaves.len(), 4);
        // Leaves in descending function order: v8(6.0), v2(5.0), v4(4.5), v6(4.0).
        assert_eq!(t.leaves, vec![7, 1, 3, 5]);
        // Merge saddles: v5 (v4⋃v6), v3 (v2⋃[v4v6]), v7 ([v2v4v6]⋃v8).
        let saddles: Vec<u32> = t
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Saddle)
            .map(|n| n.vertex)
            .collect();
        assert_eq!(saddles.len(), 3);
        assert!(saddles.contains(&2)); // v3
        assert!(saddles.contains(&4)); // v5
        assert!(saddles.contains(&6)); // v7
        let roots: Vec<u32> = t
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Root)
            .map(|n| n.vertex)
            .collect();
        assert_eq!(roots, vec![0]); // v1 = global minimum

        // Nodes: 4 leaves + 3 saddles + 1 root; arcs: 2 per saddle + 1 root arc.
        assert_eq!(t.node_count(), 8);
        assert_eq!(t.arc_count(), 7);
    }

    #[test]
    fn figure2_persistence_pairing() {
        let (g, f) = figure2_function();
        let t = MergeTree::join(&g, &f);
        assert_eq!(t.pairs.len(), 4);
        let pair_of = |extremum: u32| t.pair_of(extremum).expect("leaf has a pair");
        // "The component created last, at v6, is destroyed at v5":
        // π6 = 4.0 - 3.0 = 1.0.
        let p6 = pair_of(5);
        assert_eq!(p6.partner, 4);
        assert!((p6.persistence() - 1.0).abs() < 1e-12);
        // v4's component (younger than v2's) dies at v3: π4 = 4.5 - 2.5 = 2.0.
        let p4 = pair_of(3);
        assert_eq!(p4.partner, 2);
        assert!((p4.persistence() - 2.0).abs() < 1e-12);
        // v2's component dies meeting v8's at v7: π2 = 5.0 - 1.0 = 4.0.
        let p2 = pair_of(1);
        assert_eq!(p2.partner, 6);
        assert!((p2.persistence() - 4.0).abs() < 1e-12);
        // v8 is the global maximum: essential pair closes at the global
        // minimum v1: π8 = 6.0 - 0.0 = 6.0.
        let p8 = pair_of(7);
        assert_eq!(p8.partner, 0);
        assert!((p8.persistence() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn figure2_split_tree() {
        let (g, f) = figure2_function();
        let t = MergeTree::split(&g, &f);
        // Minima ascending: v1(0.0), v9(0.5), v7(1.0), v3(2.5), v5(3.0).
        assert_eq!(t.leaves, vec![0, 8, 6, 2, 4]);
        // Global minimum v1 closes the essential pair at the global max v8.
        let essential = t.pairs.iter().find(|p| p.extremum == 0).unwrap();
        assert_eq!(essential.partner, 7);
        assert!((essential.persistence() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_function_has_single_pair() {
        let g = DomainGraph::time_series(10);
        let f: Vec<f64> = (0..10).map(f64::from).collect();
        let t = MergeTree::join(&g, &f);
        assert_eq!(t.leaves, vec![9]);
        assert_eq!(t.pairs.len(), 1);
        assert_eq!(t.pairs[0].extremum, 9);
        assert_eq!(t.pairs[0].partner, 0);
        assert_eq!(t.nodes.len(), 2); // leaf + root
        assert_eq!(t.arcs.len(), 1);
    }

    #[test]
    fn constant_function_ties_broken_by_index() {
        let g = DomainGraph::time_series(5);
        let f = vec![1.0; 5];
        let t = MergeTree::join(&g, &f);
        // Simulated perturbation: exactly one maximum survives.
        assert_eq!(t.leaves.len(), 1);
        assert_eq!(t.pairs.len(), 1);
        assert_eq!(t.pairs[0].persistence(), 0.0);
    }

    #[test]
    fn nan_vertices_split_domain() {
        let g = DomainGraph::time_series(7);
        // Two pieces separated by NaN: [0, 5, 1] NaN [2, 7, 3].
        let f = vec![0.0, 5.0, 1.0, f64::NAN, 2.0, 7.0, 3.0];
        let t = MergeTree::join(&g, &f);
        // One maximum per piece; two essential pairs.
        assert_eq!(t.leaves.len(), 2);
        assert_eq!(t.pairs.len(), 2);
        let ps: Vec<f64> = t.persistence_values();
        // piece 1: 5.0 - 0.0 = 5.0; piece 2: 7.0 - 2.0 = 5.0.
        assert_eq!(ps.iter().filter(|&&p| p == 5.0).count(), 2);
    }

    #[test]
    fn grid_volcano_rim() {
        // A 2-D "volcano": high rim cells around a low centre, on a 3x3
        // grid at one time step. The rim is one connected component, so the
        // join tree sees one dominant maximum; the centre is the minimum.
        let g = DomainGraph::grid(3, 3, 1);
        let f = vec![
            9.0, 8.0, 9.5, //
            8.5, 0.0, 8.2, //
            9.2, 8.1, 9.8, //
        ];
        let t = MergeTree::join(&g, &f);
        // 4-adjacency means the rim corners connect through edge cells: the
        // corners (9.0, 9.5, 9.2, 9.8) are separate local maxima merging
        // through the edges.
        assert_eq!(t.leaves.len(), 4);
        // The essential pair belongs to the global max 9.8.
        let essential = t
            .pairs
            .iter()
            .max_by(|a, b| a.persistence().partial_cmp(&b.persistence()).unwrap());
        assert_eq!(essential.unwrap().extremum, 8);
        assert_eq!(essential.unwrap().partner, 4); // dies at centre 0.0
    }

    #[test]
    fn multiway_merge_is_handled() {
        // Star: centre vertex 0 adjacent to 4 spokes; all spokes higher
        // than centre -> 4 components merge at once at the centre.
        let adj = vec![vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]];
        let g = DomainGraph::new(&adj, 1);
        let f = vec![0.0, 4.0, 3.0, 2.0, 1.0];
        let t = MergeTree::join(&g, &f);
        assert_eq!(t.leaves.len(), 4);
        assert_eq!(t.pairs.len(), 4);
        // Three younger spokes die at the centre; the eldest (4.0) closes
        // the essential pair also at the centre (it is the lowest vertex).
        for p in &t.pairs {
            assert_eq!(p.partner, 0);
        }
        let persist: Vec<f64> = t.persistence_values();
        assert!(persist.contains(&4.0));
        assert!(persist.contains(&3.0));
        assert!(persist.contains(&2.0));
        assert!(persist.contains(&1.0));
    }

    #[test]
    fn pair_count_equals_leaf_count() {
        // Every leaf gets exactly one pair.
        let g = DomainGraph::grid(5, 5, 3);
        let f: Vec<f64> = (0..g.vertex_count())
            .map(|v| ((v * 2_654_435_761) % 1_000) as f64)
            .collect();
        let join = MergeTree::join(&g, &f);
        assert_eq!(join.pairs.len(), join.leaves.len());
        let split = MergeTree::split(&g, &f);
        assert_eq!(split.pairs.len(), split.leaves.len());
    }

    #[test]
    fn missing_pair_is_a_typed_error_not_a_panic() {
        // Regression: looking up the pair of a non-leaf vertex used to be
        // expressed as a panic; it must be a typed, propagatable error.
        let (g, f) = figure2_function();
        let t = MergeTree::join(&g, &f);
        // v1 (index 0) is the global minimum — a root, not a leaf.
        assert_eq!(
            t.pair_of(0),
            Err(crate::error::Error::MissingPair { extremum: 0 })
        );
        // Out-of-domain vertices are equally well-typed.
        assert!(matches!(
            t.pair_of(999),
            Err(crate::error::Error::MissingPair { extremum: 999 })
        ));
        // A leaf's pair is found.
        assert_eq!(t.pair_of(7).unwrap().extremum, 7);
    }

    #[test]
    fn many_small_components_close_in_linear_time() {
        // Regression: the essential-pair closers searched a list of seen
        // roots and the node list linearly — O(N · components). Every third
        // step undefined makes 133,333 two-vertex islands, each closing
        // with a root node distinct from its creator: ~14 s in release
        // (minutes unoptimised) before the fix, well under a second after.
        let n = 400_000;
        let f: Vec<f64> = (0..n)
            .map(|i| match i % 3 {
                0 => f64::NAN,
                _ => ((i * 2_654_435_761) % 1_000) as f64,
            })
            .collect();
        let islands = n / 3;
        let (join, split) = MergeTree::both(&DomainGraph::time_series(n), &f);
        for tree in [join, split] {
            assert_eq!(tree.leaves.len(), islands);
            assert_eq!(tree.pairs.len(), islands);
            assert_eq!(tree.node_count(), 2 * islands);
            assert_eq!(tree.arc_count(), islands);
        }
    }

    /// The sweep order used to come from sorting vertex indices through
    /// `f[..]` with `total_cmp`, ties by index — descending for the join
    /// tree, ascending for the split tree. The keyed order, zero run
    /// spliced, must be that order on every kind of value `total_cmp`
    /// tells apart.
    fn assert_comparator_order(f: &[f64]) {
        let defined = || (0..f.len() as u32).filter(|&v| !f[v as usize].is_nan());
        let mut descending: Vec<u32> = defined().collect();
        descending
            .sort_unstable_by(|&a, &b| f[b as usize].total_cmp(&f[a as usize]).then(b.cmp(&a)));
        let mut ascending: Vec<u32> = defined().collect();
        ascending
            .sort_unstable_by(|&a, &b| f[a as usize].total_cmp(&f[b as usize]).then(a.cmp(&b)));

        let order = ascending_order(f);
        assert!(order
            .iter()
            .all(|&(key, v)| key == total_order_key(f[v as usize])));
        let keyed: Vec<u32> = order.iter().map(|&(_, v)| v).collect();
        assert_eq!(keyed, ascending);
        assert!(keyed.iter().rev().eq(&descending));
        // And through the public surface: without edges every defined
        // vertex is a leaf, so the leaves are the sweep order.
        let edgeless = DomainGraph::new(&vec![Vec::new(); f.len()], 1);
        assert_eq!(MergeTree::join(&edgeless, f).leaves, descending);
        assert_eq!(MergeTree::split(&edgeless, f).leaves, ascending);
    }

    #[test]
    fn keyed_order_equals_the_comparator_order() {
        assert_eq!(total_order_key(0.0), ZERO_KEY);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0, // subnormal
            -f64::MIN_POSITIVE / 4.0,
            5e-324,
            f64::MAX,
            f64::MIN,
            1.5,
            -1.5,
            f64::NAN,
            -f64::NAN,
        ];
        let mut f: Vec<f64> = (0..600)
            .map(|i| specials[(i * 7) % specials.len()])
            .collect();
        f.extend(std::iter::repeat_n(0.0, 200)); // a long tie run
        f.extend((0..200).map(|i| f64::from(i % 5) - 2.0));
        assert_comparator_order(&f);

        // +0.0 / −0.0 mixes: −0.0 sorts below +0.0 and is not spliced.
        let signed_zeros = (0..40).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 });
        assert_comparator_order(&signed_zeros.collect::<Vec<f64>>());
        assert_comparator_order(&[-0.0, 0.0, -0.0, 0.0, 5e-324, -5e-324]);
        // An all-+0.0 field, a field with no zero, and the empty ones.
        assert_comparator_order(&[0.0; 64]);
        assert_comparator_order(&(1..=64).map(|i| f64::from(i) * 0.5).collect::<Vec<_>>());
        assert_comparator_order(&[]);
        assert_comparator_order(&[f64::NAN; 8]);
        // Zeros interleaved with NaN and negatives, the run at either end.
        let interleaved = [
            0.0,
            f64::NAN,
            -1.0,
            0.0,
            -f64::NAN,
            -0.0,
            0.0,
            f64::NEG_INFINITY,
            0.0,
            2.0,
            f64::NAN,
            0.0,
        ];
        assert_comparator_order(&interleaved);
        assert_comparator_order(&[0.0, 0.0, 3.0, -3.0]);
        assert_comparator_order(&[-3.0, -2.0, 0.0, 0.0]);
        assert_comparator_order(&[3.0, 2.0, 0.0, 0.0]);
    }

    mod sparse_sweep_order {
        use super::*;
        use proptest::prelude::*;

        /// Decodes a drawn byte over a palette that is ≥ 50% `+0.0` — the
        /// shape of an urban count field — with `−0.0`, NaN of both signs,
        /// infinities, a subnormal and small ties for the rest.
        fn value(code: u8) -> f64 {
            match code {
                0..=9 => 0.0,
                10 => -0.0,
                11 => f64::NAN,
                12 => -f64::NAN,
                13 => f64::INFINITY,
                14 => f64::NEG_INFINITY,
                15 => 5e-324,
                _ => f64::from(code % 4) - 1.5,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn spliced_order_is_the_comparator_order(
                codes in prop::collection::vec(0u8..20, 0..200),
            ) {
                let f: Vec<f64> = codes.iter().map(|&c| value(c)).collect();
                assert_comparator_order(&f);
            }
        }
    }

    #[test]
    fn empty_function() {
        let g = DomainGraph::time_series(3);
        let f = vec![f64::NAN; 3];
        let t = MergeTree::join(&g, &f);
        assert!(t.nodes.is_empty());
        assert!(t.pairs.is_empty());
    }
}
