//! Merge-tree construction (paper Section 3, Procedure *ComputeJoinTree*).
//!
//! The *join tree* tracks connected components of super-level sets as the
//! function value decreases; the *split tree* tracks sub-level sets as it
//! increases. Both are computed by one sweep over the vertices in sweep
//! order with a union-find, in `O(N log N + N α(N))`.
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
        Self::compute(graph, f, Direction::Join)
    }

    /// Computes the split tree of `f` over `graph`.
    pub fn split(graph: &DomainGraph, f: &[f64]) -> Self {
        Self::compute(graph, f, Direction::Split)
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

    fn compute(graph: &DomainGraph, f: &[f64], direction: Direction) -> Self {
        let nv = graph.vertex_count();
        assert_eq!(f.len(), nv, "function length must match vertex count");

        // Sweep order with simulated-perturbation tie-breaking: descending
        // (value, index) for join trees, ascending for split trees.
        let mut order: Vec<u32> = (0..nv as u32)
            .filter(|&v| !f[v as usize].is_nan())
            .collect();
        match direction {
            Direction::Join => order
                .sort_unstable_by(|&a, &b| f[b as usize].total_cmp(&f[a as usize]).then(b.cmp(&a))),
            Direction::Split => order
                .sort_unstable_by(|&a, &b| f[a as usize].total_cmp(&f[b as usize]).then(a.cmp(&b))),
        }
        const UNSEEN: u32 = u32::MAX;
        let mut rank = vec![UNSEEN; nv];
        for (pos, &v) in order.iter().enumerate() {
            rank[v as usize] = pos as u32;
        }

        let mut uf = crate::union_find::UnionFind::new(nv);
        // Per-component state, stored at the union-find representative.
        let mut creator = vec![UNSEEN; nv]; // leaf vertex that created the component
        let mut head = vec![UNSEEN; nv]; // node index of last critical point
        let mut lowest = vec![UNSEEN; nv]; // last vertex swept in the component

        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut arcs: Vec<(u32, u32)> = Vec::new();
        let mut pairs: Vec<PersistencePair> = Vec::new();
        let mut leaves: Vec<u32> = Vec::new();
        let mut roots_scratch: Vec<u32> = Vec::new();

        for (pos, &v) in order.iter().enumerate() {
            let pos = pos as u32;
            // Distinct components among already-swept neighbours.
            roots_scratch.clear();
            for &u in graph.neighbors(v as usize) {
                if rank[u as usize] < pos {
                    let r = uf.find(u);
                    if !roots_scratch.contains(&r) {
                        roots_scratch.push(r);
                    }
                }
            }
            match roots_scratch.len() {
                0 => {
                    // v is an extremum: creator of a new component.
                    let node = nodes.len() as u32;
                    nodes.push(TreeNode {
                        vertex: v,
                        value: f[v as usize],
                        kind: NodeKind::Leaf,
                    });
                    leaves.push(v);
                    creator[v as usize] = v;
                    head[v as usize] = node;
                    lowest[v as usize] = v;
                }
                1 => {
                    // Regular vertex: extend the component.
                    let r = roots_scratch[0];
                    let (c, h) = (creator[r as usize], head[r as usize]);
                    let nr = uf.union(r, v);
                    creator[nr as usize] = c;
                    head[nr as usize] = h;
                    lowest[nr as usize] = v;
                }
                _ => {
                    // Saddle: merge all components meeting at v. The
                    // survivor is the eldest creator (smallest sweep rank);
                    // every younger creator is paired with v.
                    let node = nodes.len() as u32;
                    nodes.push(TreeNode {
                        vertex: v,
                        value: f[v as usize],
                        kind: NodeKind::Saddle,
                    });
                    let mut eldest = roots_scratch[0];
                    for &r in &roots_scratch[1..] {
                        if rank[creator[r as usize] as usize]
                            < rank[creator[eldest as usize] as usize]
                        {
                            eldest = r;
                        }
                    }
                    let surviving_creator = creator[eldest as usize];
                    for &r in &roots_scratch {
                        arcs.push((head[r as usize], node));
                        let c = creator[r as usize];
                        if c != surviving_creator {
                            pairs.push(PersistencePair {
                                extremum: c,
                                partner: v,
                                birth: f[c as usize],
                                death: f[v as usize],
                            });
                        }
                    }
                    let mut nr = uf.union(roots_scratch[0], v);
                    for &r in &roots_scratch[1..] {
                        nr = uf.union(nr, r);
                    }
                    creator[nr as usize] = surviving_creator;
                    head[nr as usize] = node;
                    lowest[nr as usize] = v;
                }
            }
        }

        // Close the essential pair of every connected component: its creator
        // (global extremum of the piece) pairs with the piece's final swept
        // vertex.
        let mut seen_roots: Vec<u32> = Vec::new();
        for &v in &order {
            let r = uf.find(v);
            if seen_roots.contains(&r) {
                continue;
            }
            seen_roots.push(r);
            let c = creator[r as usize];
            let low = lowest[r as usize];
            pairs.push(PersistencePair {
                extremum: c,
                partner: low,
                birth: f[c as usize],
                death: f[low as usize],
            });
            if low != c {
                // The final vertex becomes the root node unless it already
                // is one (a saddle that happened to end the sweep).
                let existing = nodes.iter().position(|n| n.vertex == low);
                let root_node = match existing {
                    Some(idx) => idx as u32,
                    None => {
                        let idx = nodes.len() as u32;
                        nodes.push(TreeNode {
                            vertex: low,
                            value: f[low as usize],
                            kind: NodeKind::Root,
                        });
                        idx
                    }
                };
                let h = head[r as usize];
                if h != root_node {
                    arcs.push((h, root_node));
                }
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
    fn empty_function() {
        let g = DomainGraph::time_series(3);
        let f = vec![f64::NAN; 3];
        let t = MergeTree::join(&g, &f);
        assert!(t.nodes.is_empty());
        assert!(t.pairs.is_empty());
    }
}
