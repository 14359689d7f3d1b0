//! Figure 11 — relationship pruning: candidate relationships vs
//! statistically significant ones vs τ-filtered ones, at (week, city).

use crate::{fnum, Table};
use polygamy_core::prelude::*;
use polygamy_datagen::{open_collection, OpenConfig};
use polygamy_stdata::Resolution;

fn count_rels(
    dp: &DataPolygamy,
    resolution: Resolution,
    permutations: usize,
) -> (usize, usize, usize, usize) {
    let base = Clause::default()
        .permutations(permutations)
        .at_resolution(resolution);
    let all = dp
        .query(&RelationshipQuery::all().with_clause(base.clone().include_insignificant()))
        .expect("query succeeds");
    let significant = all.iter().filter(|r| r.significant).count();
    let t06 = all
        .iter()
        .filter(|r| r.significant && r.score().abs() >= 0.6)
        .count();
    let t08 = all
        .iter()
        .filter(|r| r.significant && r.score().abs() >= 0.8)
        .count();
    (all.len(), significant, t06, t08)
}

/// Counts candidates vs survivors for the urban and open corpora.
pub fn run(quick: bool) -> String {
    let mut out = String::from("# Figure 11 — relationship pruning at (week, city)\n\n");
    out.push_str(
        "Paper: urban 9,745 candidates -> 137 significant (-98.6%); τ>=0.6\n\
         -> -99%; τ>=0.8 -> -99.2%. Open: 2.4M possible -> 22,327 (-98.9%).\n\n",
    );
    let resolution = Resolution::new(SpatialResolution::City, TemporalResolution::Week);
    let perms = super::permutations(quick);

    // (a) urban
    let (_c, dp) = super::indexed(quick);
    let (cand, sig, t06, t08) = count_rels(&dp, resolution, perms);
    let mut t = Table::new(&[
        "corpus",
        "candidates",
        "significant",
        "τ>=0.6",
        "τ>=0.8",
        "pruned",
    ]);
    t.row(&[
        "urban".into(),
        cand.to_string(),
        sig.to_string(),
        t06.to_string(),
        t08.to_string(),
        format!(
            "{}%",
            fnum(100.0 * (1.0 - sig as f64 / cand.max(1) as f64), 1)
        ),
    ]);

    // (b) open corpus with ground truth.
    let open = open_collection(OpenConfig {
        n_datasets: if quick { 16 } else { 40 },
        ..OpenConfig::default()
    });
    let mut dp_open = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        polygamy_core::framework::Config::default(),
    );
    for d in &open.datasets {
        dp_open.add_dataset(d.clone());
    }
    dp_open.build_index();
    // Open data sets are hourly/daily; week-city is their common coarse
    // resolution like the paper's setting.
    let (cand_o, sig_o, t06_o, t08_o) = count_rels(&dp_open, resolution, perms);
    t.row(&[
        "open".into(),
        cand_o.to_string(),
        sig_o.to_string(),
        t06_o.to_string(),
        t08_o.to_string(),
        format!(
            "{}%",
            fnum(100.0 * (1.0 - sig_o as f64 / cand_o.max(1) as f64), 1)
        ),
    ]);
    out.push_str(&t.render());

    // Ground-truth recall on the open corpus (beyond the paper: it had no
    // gold data).
    let clause = Clause::default().permutations(perms);
    let rels = dp_open
        .query(&RelationshipQuery::all().with_clause(clause))
        .expect("query succeeds");
    let mut recalled = 0;
    for &(a, b) in &open.planted_pairs {
        let (na, nb) = (
            open.datasets[a].meta.name.as_str(),
            open.datasets[b].meta.name.as_str(),
        );
        if rels.iter().any(|r| {
            (&*r.left.dataset == na && &*r.right.dataset == nb)
                || (&*r.left.dataset == nb && &*r.right.dataset == na)
        }) {
            recalled += 1;
        }
    }
    out.push_str(&format!(
        "\nGround truth (ours): {}/{} planted pairs recovered among significant\n\
         relationships at any resolution.\n",
        recalled,
        open.planted_pairs.len()
    ));
    out
}
