//! Independent oracles for the topology stage of the index build.
//!
//! `MergeTree` pairs extrema with a sorted sweep over a union-find; the
//! persistence oracle here pairs them *by definition* — no sweep, no
//! union-find, no shared order — so an error in the keyed order, the sweep
//! or the essential-pair closing shows as a different partner, not merely
//! as an ill-formed tree. The other two properties pin the pieces the
//! sweep stands on: `both` against its two halves, and the implicit domain
//! graph against an explicitly materialised one.

use polygamy_topology::{DomainGraph, MergeTree};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Decodes a drawn byte: few distinct values (ties everywhere), both
/// zeros (`total_cmp` tells them apart), and undefined.
fn value(code: u8) -> f64 {
    match code {
        0..=4 => f64::from(code) - 2.0,
        5 => -0.0,
        6 => 0.5,
        _ => f64::NAN,
    }
}

/// A random symmetric adjacency relation over `n` regions, each list
/// sorted and duplicate-free.
fn symmetric_adjacency(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a != b {
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    adj
}

/// One of the three domain shapes — 1-D, grid, irregular — of at most 40
/// vertices, and a function over it decoded from `codes`.
fn field(
    shape: u8,
    (a, b): (usize, usize),
    (from, to): (&[usize], &[usize]),
    codes: &[u8],
) -> (DomainGraph, Vec<f64>) {
    let graph = match shape {
        0 => DomainGraph::time_series(1 + (a * b) % 40),
        1 => DomainGraph::grid(1 + a % 4, 1 + b % 3, 1 + (a + b) % 3),
        _ => {
            let edges: Vec<(usize, usize)> = from.iter().copied().zip(to.iter().copied()).collect();
            DomainGraph::new(&symmetric_adjacency(1 + a % 10, &edges), 1 + b % 4)
        }
    };
    let f = codes[..graph.vertex_count()]
        .iter()
        .map(|&c| value(c))
        .collect();
    (graph, f)
}

/// extremum → (partner, birth bits, death bits).
type Pairing = BTreeMap<u32, (u32, u64, u64)>;

/// Pairs every extremum of `f` by the definition of persistence under the
/// simulated-perturbation order `cmp` (`Greater` = swept earlier): an
/// extremum is a vertex with no earlier neighbour; lowering the threshold
/// vertex by vertex, its component — found by a flood over the vertices
/// at or before the threshold — dies at the first threshold where it holds
/// a vertex swept before the extremum (the elder extremum it merged into
/// is the earliest of them). A component that never dies is a whole
/// connected piece and closes at the piece's last vertex.
fn pair_by_definition(
    graph: &DomainGraph,
    f: &[f64],
    cmp: impl Fn(u32, u32) -> Ordering,
) -> (Vec<u32>, Pairing) {
    let defined: Vec<u32> = (0..f.len() as u32)
        .filter(|&v| !f[v as usize].is_nan())
        .collect();
    let mut thresholds = defined.clone();
    thresholds.sort_by(|&a, &b| cmp(b, a));
    let component = |of: u32, threshold: u32| -> Vec<u32> {
        let inside = |u: u32| !f[u as usize].is_nan() && cmp(u, threshold) != Ordering::Less;
        let mut seen = vec![of];
        let mut stack = vec![of];
        while let Some(v) = stack.pop() {
            for u in graph.neighbors(v as usize) {
                if inside(u) && !seen.contains(&u) {
                    seen.push(u);
                    stack.push(u);
                }
            }
        }
        seen
    };
    let extrema: Vec<u32> = thresholds
        .iter()
        .copied()
        .filter(|&m| {
            graph
                .neighbors(m as usize)
                .all(|u| f[u as usize].is_nan() || cmp(u, m) == Ordering::Less)
        })
        .collect();
    let mut pairing = Pairing::new();
    for &m in &extrema {
        let below = thresholds.iter().skip_while(|&&t| t != m);
        let died_at = below.copied().find(|&t| {
            component(m, t)
                .iter()
                .any(|&u| cmp(u, m) == Ordering::Greater)
        });
        let last = *thresholds.last().expect("an extremum is defined");
        let partner = died_at.unwrap_or_else(|| {
            let piece = component(m, last);
            *thresholds
                .iter()
                .rev()
                .find(|t| piece.contains(t))
                .expect("the piece holds its extremum")
        });
        let bits = |v: u32| f[v as usize].to_bits();
        pairing.insert(m, (partner, bits(m), bits(partner)));
    }
    (extrema, pairing)
}

fn pairing_of(tree: &MergeTree) -> Pairing {
    tree.pairs
        .iter()
        .map(|p| {
            (
                p.extremum,
                (p.partner, p.birth.to_bits(), p.death.to_bits()),
            )
        })
        .collect()
}

/// The CSR the domain graph used to materialise: per vertex, temporal
/// predecessor, the spatial row shifted into the step, temporal successor.
fn explicit_csr(spatial_adjacency: &[Vec<u32>], n_steps: usize) -> Vec<Vec<u32>> {
    let n = spatial_adjacency.len();
    let mut rows = Vec::with_capacity(n * n_steps);
    for z in 0..n_steps {
        for (x, adj) in spatial_adjacency.iter().enumerate() {
            let v = z * n + x;
            let mut row = Vec::new();
            if z > 0 {
                row.push((v - n) as u32);
            }
            row.extend(adj.iter().map(|&y| (z * n + y as usize) as u32));
            if z + 1 < n_steps {
                row.push((v + n) as u32);
            }
            rows.push(row);
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Join and split trees — built alone and through `both` — pair every
    /// extremum with the partner, birth and death the definition gives,
    /// and list the extrema as leaves in sweep order.
    #[test]
    fn persistence_pairs_match_the_definition(
        shape in 0u8..3,
        a in 1usize..40,
        b in 1usize..40,
        from in prop::collection::vec(0usize..10, 12),
        to in prop::collection::vec(0usize..10, 12),
        codes in prop::collection::vec(0u8..9, 40),
    ) {
        let (graph, f) = field(shape, (a, b), (&from, &to), &codes);
        let order = |u: u32, v: u32| f[u as usize].total_cmp(&f[v as usize]).then(u.cmp(&v));

        let (maxima, by_definition) = pair_by_definition(&graph, &f, order);
        let (both_join, both_split) = MergeTree::both(&graph, &f);
        for join in [MergeTree::join(&graph, &f), both_join] {
            prop_assert_eq!(&join.leaves, &maxima);
            prop_assert_eq!(pairing_of(&join), by_definition.clone());
            prop_assert_eq!(join.pairs.len(), maxima.len());
        }
        let (minima, by_definition) = pair_by_definition(&graph, &f, |u, v| order(v, u));
        for split in [MergeTree::split(&graph, &f), both_split] {
            prop_assert_eq!(&split.leaves, &minima);
            prop_assert_eq!(pairing_of(&split), by_definition.clone());
            prop_assert_eq!(split.pairs.len(), minima.len());
        }
    }

    /// `both` is `join` and `split`, field for field.
    #[test]
    fn both_is_join_and_split(
        shape in 0u8..3,
        a in 1usize..40,
        b in 1usize..40,
        from in prop::collection::vec(0usize..10, 12),
        to in prop::collection::vec(0usize..10, 12),
        codes in prop::collection::vec(0u8..9, 40),
    ) {
        let (graph, f) = field(shape, (a, b), (&from, &to), &codes);
        let (join, split) = MergeTree::both(&graph, &f);
        for (got, alone) in [(join, MergeTree::join(&graph, &f)), (split, MergeTree::split(&graph, &f))] {
            prop_assert_eq!(got.direction, alone.direction);
            prop_assert_eq!(got.nodes, alone.nodes);
            prop_assert_eq!(got.arcs, alone.arcs);
            prop_assert_eq!(got.pairs, alone.pairs);
            prop_assert_eq!(got.leaves, alone.leaves);
        }
    }

    /// The implicit graph yields, vertex by vertex, the adjacency the
    /// materialised CSR held — for any relation (asymmetric, unsorted,
    /// with repeats and self-loops) and for degenerate step counts.
    #[test]
    fn implicit_neighbors_match_an_explicit_csr(
        n_regions in 0usize..7,
        steps_choice in 0usize..4,
        from in prop::collection::vec(0usize..7, 0..20),
        to in prop::collection::vec(0usize..7, 20),
    ) {
        let n_steps = [0, 1, 2, 7][steps_choice];
        let mut adjacency = vec![Vec::new(); n_regions];
        for (&a, &b) in from.iter().zip(&to) {
            if n_regions > 0 {
                adjacency[a % n_regions].push((b % n_regions) as u32);
            }
        }
        let graph = DomainGraph::new(&adjacency, n_steps);
        let rows = explicit_csr(&adjacency, n_steps);
        prop_assert_eq!(graph.vertex_count(), rows.len());
        prop_assert_eq!(graph.edge_count(), rows.iter().map(Vec::len).sum::<usize>() / 2);
        for (v, row) in rows.iter().enumerate() {
            prop_assert_eq!(&graph.neighbors(v).collect::<Vec<u32>>(), row);
        }
    }
}
