//! Figures 2 + 4 — the worked 1-D example: super-level sets, join tree and
//! persistence pairing.

use crate::{fnum, Table};
use polygamy_topology::{super_level_set, BitVec, DomainGraph, MergeTree};

/// Reconstructs the paper's Figure 2/4 walkthrough and checks every number.
pub fn run(_quick: bool) -> String {
    // The Figure 2 function: creation order v8, v2, v4, v6; first merge at
    // v5 (see merge_tree unit tests for the derivation).
    let g = DomainGraph::time_series(9);
    let f = vec![0.0, 5.0, 2.5, 4.5, 3.0, 4.0, 1.0, 6.0, 0.5];
    let names = ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"];
    let join = MergeTree::join(&g, &f);

    let mut out = String::from("# Figures 2 + 4 — join tree of the 1-D example\n\n");
    let mut t = Table::new(&["maximum", "f", "paired destroyer", "persistence"]);
    let mut pairs = join.pairs.clone();
    pairs.sort_by(|a, b| b.persistence().total_cmp(&a.persistence()));
    for p in &pairs {
        t.row(&[
            names[p.extremum as usize].to_string(),
            fnum(p.birth, 1),
            names[p.partner as usize].to_string(),
            fnum(p.persistence(), 1),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nLeaves (desc): {:?}  nodes: {}  arcs: {}\n",
        join.leaves
            .iter()
            .map(|&v| names[v as usize])
            .collect::<Vec<_>>(),
        join.node_count(),
        join.arc_count(),
    ));

    // Figure 2(b)/(c): component counts at f1 and f2.
    let count_components = |set: &BitVec| -> usize {
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
                    if set.get(u as usize) && !seen.get(u as usize) {
                        seen.set(u as usize);
                        stack.push(u as usize);
                    }
                }
            }
        }
        n
    };
    let at_f1 = count_components(&super_level_set(&g, &f, &join, 3.5));
    let at_f2 = count_components(&super_level_set(&g, &f, &join, 2.7));
    out.push_str(&format!(
        "\nSuper-level components at f1 (paper: 4): {at_f1}\nSuper-level components at f2 (paper: 3): {at_f2}\n"
    ));
    out.push_str(&format!(
        "Shape check: {}\n",
        if at_f1 == 4 && at_f2 == 3 {
            "REPRODUCED"
        } else {
            "NOT REPRODUCED"
        }
    ));
    out
}
