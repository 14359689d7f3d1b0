//! Merge-tree construction (paper Section 3, Procedure *ComputeJoinTree*).
//!
//! The *join tree* tracks connected components of super-level sets as the
//! function value decreases; the *split tree* tracks sub-level sets as it
//! increases. Both are computed by one sweep over the vertices in sweep
//! order with a union-find, in `O(N log N + N α(N))` (Carr, Snoeyink &
//! Axen, "Computing Contour Trees in All Dimensions", 2003). The split order
//! is the join order reversed, so [`MergeTree::both`] sorts once and sweeps
//! the one order in both directions. The sort skips the run of `+0.0`
//! values (every empty cell of a count function, most of a sparse field):
//! that run is already in tie order and is spliced in at its place, so the
//! `N log N` term is over the other values only.
//!
//! The index reads nothing of a tree but its persistence pairs, so the
//! sweep reports what it finds to a sink: [`MergeTree`] records nodes,
//! arcs and leaves and is the reference the oracle tests compare against;
//! [`persistence_pairs`] keeps `(extremum, birth, death)` only. On a field
//! with no value below `+0.0` it does not sweep the `+0.0` plateau at all
//! in the join direction — every component still open when the sweep
//! reaches the plateau dies at 0, and the plateau's own maxima are found by
//! a local test — and sweeps it in index order, unsorted, in the split
//! direction, where it comes first.
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
use crate::persistence::{ExtremumPair, PersistencePair};
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
        let mut sweep = Sweep::new(graph, f, TreeSink::default());
        sweep.sorted::<false>(order, direction);
        let (tree, leaves) = sweep.finish();
        Self {
            direction,
            nodes: tree.nodes,
            arcs: tree.arcs,
            pairs: tree.pairs,
            leaves,
        }
    }
}

/// The persistence pairs of a function's join and split trees — all that
/// the thresholds read of them — and what the ordering pass counted.
#[derive(Debug, Clone, PartialEq)]
pub struct TreePairs {
    /// The join tree's pairs: one per maximum, in no particular order.
    pub join: Vec<ExtremumPair>,
    /// The split tree's pairs: one per minimum, in no particular order.
    pub split: Vec<ExtremumPair>,
    /// Vertices with a defined (non-NaN) value.
    pub defined: usize,
    /// Vertices whose value is exactly `+0.0`.
    pub zeros: usize,
    /// True when no defined value sorts below `+0.0` (no negative value,
    /// no `−0.0`), so the `+0.0` plateau was swept by the short-cuts.
    pub plateau_swept: bool,
}

/// The persistence pairs of the join and the split tree of `f` over
/// `graph`: as a multiset per direction, what [`MergeTree::both`] pairs,
/// without building either tree.
///
/// When no defined value of `f` sorts below `+0.0`, the `+0.0` plateau is
/// where the join sweep ends and the split sweep starts. The join sweep
/// then visits only the positive vertices, remembering per component
/// whether one of them borders the plateau: such a component dies at 0
/// wherever in the plateau it would merge (edges are undirected, so the
/// plateau vertex it borders would join it), and the plateau's own maxima
/// are the `+0.0` vertices with no positive neighbour and no `+0.0`
/// neighbour of higher index. The split sweep takes the plateau in index
/// order — its tie order — with no sort, then the sorted positives.
pub fn persistence_pairs(graph: &DomainGraph, f: &[f64]) -> TreePairs {
    let (order, zeros) = sorted_keys(f);
    let defined = order.len() + zeros;
    let plateau_swept = order.first().is_none_or(|&(key, _)| key > ZERO_KEY);
    let (join, split) = if plateau_swept {
        let mut join = Sweep::new(graph, f, PairSink::default());
        join.sorted::<true>(&order, Direction::Join);
        let mut join = join.finish().0 .0;
        let mut split = Sweep::new(graph, f, PairSink::default());
        // Without a `+0.0` vertex there is no plateau to walk (nor, on an
        // empty domain, a step to walk it by).
        if zeros > 0 {
            plateau_maxima(graph, f, &mut join);
            split.plateau_in_index_order();
        }
        split.sorted::<false>(&order, Direction::Split);
        (join, split.finish().0 .0)
    } else {
        let order = splice_zeros(f, order, zeros);
        let sweep = |direction| {
            let mut sweep = Sweep::new(graph, f, PairSink::default());
            sweep.sorted::<false>(&order, direction);
            sweep.finish().0 .0
        };
        (sweep(Direction::Join), sweep(Direction::Split))
    };
    TreePairs {
        join,
        split,
        defined,
        zeros,
        plateau_swept,
    }
}

/// The sweep: the swept vertices, partitioned into the components of the
/// current level set, and what it found reported to `S`.
struct Sweep<'a, S> {
    graph: &'a DomainGraph,
    f: &'a [f64],
    components: UnionFind<Component>,
    /// Every vertex that created a component, in sweep order.
    leaves: Vec<u32>,
    /// Scratch: the distinct components among a vertex's swept neighbours.
    roots: Vec<u32>,
    /// Vertices swept so far.
    swept: u32,
    sink: S,
}

/// What the sweep knows about one component of the current level set.
#[derive(Debug, Clone, Copy)]
struct Component {
    /// Leaf vertex that created the component (of the eldest one merged in).
    creator: u32,
    /// Sweep position of `creator`.
    born: u32,
    /// The sink's id of the component's last critical point.
    head: u32,
    /// Last vertex swept in the component.
    lowest: u32,
    /// Whether a vertex of the component borders the unswept `+0.0`
    /// plateau; only the join short-cut of [`persistence_pairs`] sets it.
    borders_zero: bool,
}

/// Where a sweep reports critical points and pairs.
trait Sink {
    /// `vertex` created a component; returns the id of its node.
    fn leaf(&mut self, vertex: u32, value: f64) -> u32;
    /// Components meet at `vertex`; returns the id of its node.
    fn saddle(&mut self, vertex: u32, value: f64) -> u32;
    /// The component whose last critical point was `head` ends at `node`.
    fn arc(&mut self, head: u32, node: u32);
    /// The component created at `extremum` died at `partner`, valued `death`.
    fn pair(&mut self, extremum: u32, birth: f64, partner: u32, death: f64);
    /// A piece of the domain whose last critical point was `head` ended at
    /// its last swept vertex `lowest`.
    fn close(&mut self, head: u32, lowest: u32, value: f64);
}

/// Records the whole tree: what [`MergeTree`] is made of.
#[derive(Default)]
struct TreeSink {
    nodes: Vec<TreeNode>,
    arcs: Vec<(u32, u32)>,
    pairs: Vec<PersistencePair>,
}

impl TreeSink {
    fn node(&mut self, vertex: u32, value: f64, kind: NodeKind) -> u32 {
        self.nodes.push(TreeNode {
            vertex,
            value,
            kind,
        });
        self.nodes.len() as u32 - 1
    }
}

impl Sink for TreeSink {
    fn leaf(&mut self, vertex: u32, value: f64) -> u32 {
        self.node(vertex, value, NodeKind::Leaf)
    }

    fn saddle(&mut self, vertex: u32, value: f64) -> u32 {
        self.node(vertex, value, NodeKind::Saddle)
    }

    fn arc(&mut self, head: u32, node: u32) {
        self.arcs.push((head, node));
    }

    fn pair(&mut self, extremum: u32, birth: f64, partner: u32, death: f64) {
        self.pairs.push(PersistencePair {
            extremum,
            partner,
            birth,
            death,
        });
    }

    fn close(&mut self, head: u32, lowest: u32, value: f64) {
        // The final vertex becomes the root node unless it already is a
        // node: a lone leaf, or a saddle that ended the sweep — which is
        // then the component's last critical point, its head.
        if self.nodes[head as usize].vertex != lowest {
            let root = self.node(lowest, value, NodeKind::Root);
            self.arcs.push((head, root));
        }
    }
}

/// Keeps the pairs only, without their destroyer vertices.
#[derive(Default)]
struct PairSink(Vec<ExtremumPair>);

impl Sink for PairSink {
    fn leaf(&mut self, _: u32, _: f64) -> u32 {
        0
    }

    fn saddle(&mut self, _: u32, _: f64) -> u32 {
        0
    }

    fn arc(&mut self, _: u32, _: u32) {}

    fn pair(&mut self, extremum: u32, birth: f64, _: u32, death: f64) {
        self.0.push(ExtremumPair {
            extremum,
            birth,
            death,
        });
    }

    fn close(&mut self, _: u32, _: u32, _: f64) {}
}

impl<'a, S: Sink> Sweep<'a, S> {
    fn new(graph: &'a DomainGraph, f: &'a [f64], sink: S) -> Self {
        assert_eq!(
            f.len(),
            graph.vertex_count(),
            "function length must match vertex count"
        );
        Self {
            graph,
            f,
            components: UnionFind::new(f.len()),
            leaves: Vec::new(),
            roots: Vec::new(),
            swept: 0,
            sink,
        }
    }

    /// Sweeps `order` (ascending; see [`ascending_order`]): forwards for
    /// the split tree, backwards for the join tree. `BORDERS_ZERO` as for
    /// [`Sweep::step`].
    fn sorted<const BORDERS_ZERO: bool>(&mut self, order: &[(u64, u32)], direction: Direction) {
        let graph = self.graph;
        let mut step = |&(_, v): &(u64, u32)| {
            self.step::<BORDERS_ZERO>(v, graph.neighbors(v as usize));
        };
        match direction {
            Direction::Join => order.iter().rev().for_each(&mut step),
            Direction::Split => order.iter().for_each(&mut step),
        }
    }

    /// Sweeps the `+0.0` vertices in index order — their order in a split
    /// sweep that meets them first. The only neighbours swept before a
    /// vertex are then its `+0.0` neighbours of lower index: its temporal
    /// predecessor and the spatial neighbours of lower region index.
    fn plateau_in_index_order(&mut self) {
        let (graph, f) = (self.graph, self.f);
        let n = graph.n_regions;
        for (z, step) in f.chunks_exact(n).enumerate() {
            let base = z * n;
            for (x, value) in step.iter().enumerate() {
                if value.to_bits() != 0 {
                    continue;
                }
                let v = base + x;
                let before = (z > 0).then(|| (v - n) as u32);
                let lower = graph.row(x).iter().filter(|&&y| (y as usize) < x);
                let lower = lower.map(|&y| (base + y as usize) as u32);
                self.step::<false>(v as u32, before.into_iter().chain(lower));
            }
        }
    }

    /// Sweeps `v`, given (at least) every neighbour of it swept so far.
    /// With `BORDERS_ZERO`, an unswept `+0.0` neighbour marks `v`'s
    /// component as bordering the plateau.
    #[inline]
    fn step<const BORDERS_ZERO: bool>(&mut self, v: u32, neighbours: impl Iterator<Item = u32>) {
        let mut roots = std::mem::take(&mut self.roots);
        roots.clear();
        let mut borders_zero = false;
        for u in neighbours {
            if self.components.contains(u) {
                let r = self.components.find(u);
                if !roots.contains(&r) {
                    roots.push(r);
                }
            } else if BORDERS_ZERO {
                borders_zero |= self.f[u as usize].to_bits() == 0;
            }
        }
        let value = self.f[v as usize];
        let born = self.swept;
        self.swept += 1;
        match roots[..] {
            [] => {
                // v is an extremum: creator of a new component.
                let head = self.sink.leaf(v, value);
                self.leaves.push(v);
                let component = Component {
                    creator: v,
                    born,
                    head,
                    lowest: v,
                    borders_zero,
                };
                self.components.insert(v, component);
            }
            [r] => {
                // Regular vertex: extend the component.
                let component = self.components.attach(v, r);
                component.lowest = v;
                component.borders_zero |= borders_zero;
            }
            _ => {
                // Saddle: merge all components meeting at v. The survivor
                // is the eldest creator (earliest in the sweep); every
                // younger creator is paired with v.
                let node = self.sink.saddle(v, value);
                let eldest = roots
                    .iter()
                    .map(|&r| *self.components.payload(r))
                    .min_by_key(|c| c.born)
                    .expect("a saddle joins components");
                let mut merged = roots[0];
                for &r in &roots {
                    let c = *self.components.payload(r);
                    self.sink.arc(c.head, node);
                    borders_zero |= c.borders_zero;
                    if c.creator != eldest.creator {
                        self.sink
                            .pair(c.creator, self.f[c.creator as usize], v, value);
                    }
                    merged = self.components.union(merged, r);
                }
                *self.components.attach(v, merged) = Component {
                    head: node,
                    lowest: v,
                    borders_zero,
                    ..eldest
                };
            }
        }
        self.roots = roots;
    }

    /// Closes the essential pair of every connected piece and returns the
    /// sink with the leaves. A piece's creator pairs with the piece's final
    /// swept vertex — or, when it borders the unswept `+0.0` plateau, dies
    /// at 0 there. A piece's first swept vertex is the leaf that ends up as
    /// its creator, so the leaves that still own their component are the
    /// pieces, in the order the sweep met them.
    fn finish(mut self) -> (S, Vec<u32>) {
        for &leaf in &self.leaves {
            let root = self.components.find(leaf);
            let piece = *self.components.payload(root);
            if piece.creator != leaf {
                continue;
            }
            let lowest = self.f[piece.lowest as usize];
            let death = if piece.borders_zero { 0.0 } else { lowest };
            let birth = self.f[leaf as usize];
            self.sink.pair(leaf, birth, piece.lowest, death);
            self.sink.close(piece.head, piece.lowest, lowest);
        }
        (self.sink, self.leaves)
    }
}

/// Adds the join pairs of the `+0.0` plateau's own maxima to `pairs`, on a
/// function with no value below `+0.0` whose positive vertices have been
/// swept. A join sweep would meet the plateau last, in descending index
/// order, so a `+0.0` vertex creates a component iff it has no positive
/// neighbour and no `+0.0` neighbour of higher index; that component dies
/// at 0, in the plateau, so its pair is `(v, 0, 0)`.
fn plateau_maxima(graph: &DomainGraph, f: &[f64], pairs: &mut Vec<ExtremumPair>) {
    let n = graph.n_regions;
    let defined = |u: usize| !f[u].is_nan();
    let positive = |u: usize| defined(u) && f[u].to_bits() != 0;
    for (z, step) in f.chunks_exact(n).enumerate() {
        let base = z * n;
        for (x, value) in step.iter().enumerate() {
            let v = base + x;
            let maximum = value.to_bits() == 0
                && !(v + n < f.len() && defined(v + n))
                && !(z > 0 && positive(v - n))
                && graph.row(x).iter().all(|&y| {
                    let u = base + y as usize;
                    if y as usize > x {
                        !defined(u)
                    } else {
                        !positive(u)
                    }
                });
            if maximum {
                pairs.push(ExtremumPair {
                    extremum: v as u32,
                    birth: 0.0,
                    death: 0.0,
                });
            }
        }
    }
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
/// reversed.
fn ascending_order(f: &[f64]) -> Vec<(u64, u32)> {
    let (order, zeros) = sorted_keys(f);
    splice_zeros(f, order, zeros)
}

/// The defined vertices whose value is not `+0.0`, as `(key, vertex)` in
/// ascending order, and the number of `+0.0` vertices. Keys compare as
/// plain integers and ties by vertex index; no two pairs are equal, so an
/// unstable sort has only the one result.
///
/// The `+0.0` vertices — most of a sparse count field — are one tie run
/// already in index order, so they are left out of the sort.
fn sorted_keys(f: &[f64]) -> (Vec<(u64, u32)>, usize) {
    let mut order: Vec<(u64, u32)> = Vec::with_capacity(f.len());
    let mut zeros = 0;
    for (v, &x) in f.iter().enumerate() {
        if x.to_bits() == 0 {
            zeros += 1;
        } else if !x.is_nan() {
            order.push((total_order_key(x), v as u32));
        }
    }
    order.sort_unstable();
    (order, zeros)
}

/// Splices the `zeros` vertices of `f` whose value is `+0.0`, in index
/// order, into the sorted `order` where its keys cross [`ZERO_KEY`].
fn splice_zeros(f: &[f64], mut order: Vec<(u64, u32)>, zeros: usize) -> Vec<(u64, u32)> {
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

    mod pairs_only_sweep {
        use super::*;
        use proptest::prelude::*;

        /// Decodes a drawn byte over a palette that is ≥ 50% `+0.0`, with
        /// NaN holes and tied positive values. `mix` 0 is non-negative
        /// (with `+∞` and a subnormal), 1 adds negative values, 2 adds
        /// `−0.0` and nothing below it.
        fn value(code: u8, mix: u8) -> f64 {
            match (code, mix) {
                (0..=9, _) => 0.0,
                (10, _) => f64::NAN,
                (11, 1) => -1.5,
                (11, 2) => -0.0,
                (11, _) => f64::INFINITY,
                (12, 1) => -0.5,
                (12, _) => 5e-324,
                _ => f64::from(code % 4) + 0.5,
            }
        }

        /// A symmetric spatial adjacency over `n` regions, one drawn bit
        /// per region pair.
        fn irregular(n: usize, bits: u64) -> Vec<Vec<u32>> {
            let mut adjacency = vec![Vec::new(); n];
            let mut bit = 0;
            for a in 0..n {
                for b in a + 1..n {
                    if bits >> bit & 1 == 1 {
                        adjacency[a].push(b as u32);
                        adjacency[b].push(a as u32);
                    }
                    bit += 1;
                }
            }
            adjacency
        }

        /// A pair multiset as sorted `(extremum, birth bits, death bits)`.
        fn multiset(pairs: impl IntoIterator<Item = ExtremumPair>) -> Vec<(u32, u64, u64)> {
            let mut out: Vec<_> = pairs
                .into_iter()
                .map(|p| (p.extremum, p.birth.to_bits(), p.death.to_bits()))
                .collect();
            out.sort_unstable();
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn pairs_only_sweep_pairs_what_the_trees_pair(
                shape in 0u8..3,
                regions in 1usize..7,
                steps in 1usize..9,
                edges in 0u64..u64::MAX,
                mix in 0u8..3,
                codes in prop::collection::vec(0u8..20, 96),
            ) {
                let graph = match shape {
                    0 => DomainGraph::time_series(regions * steps),
                    1 => DomainGraph::grid(regions, 2, steps),
                    _ => DomainGraph::new(&irregular(regions, edges), steps),
                };
                let f: Vec<f64> = codes[..graph.vertex_count()]
                    .iter()
                    .map(|&c| value(c, mix))
                    .collect();
                let pairs = persistence_pairs(&graph, &f);
                let (join, split) = MergeTree::both(&graph, &f);
                let tree_pairs = |t: &MergeTree| multiset(t.pairs.iter().map(ExtremumPair::from));
                prop_assert_eq!(multiset(pairs.join), tree_pairs(&join));
                prop_assert_eq!(multiset(pairs.split), tree_pairs(&split));
                let (zeros, defined) = (
                    f.iter().filter(|x| x.to_bits() == 0).count(),
                    f.iter().filter(|x| !x.is_nan()).count(),
                );
                prop_assert_eq!((pairs.zeros, pairs.defined), (zeros, defined));
                let non_negative = f.iter().all(|x| x.is_nan() || x.is_sign_positive());
                prop_assert_eq!(pairs.plateau_swept, non_negative);
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
