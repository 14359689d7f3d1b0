//! Hypothesis generation over the full urban collection (paper Section 1):
//! index all nine data sets, then ask "find all data sets related to D"
//! for every D and rank data sets by how polygamous they are.
//!
//! ```text
//! cargo run --release --example urban_exploration [-- --quick]
//! ```

use polygamy_core::prelude::*;
use polygamy_datagen::{urban_collection, UrbanConfig};
use std::collections::BTreeMap;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let collection = urban_collection(UrbanConfig {
        n_years: 1,
        scale: if quick { 0.03 } else { 0.1 },
        extra_weather_attrs: 0,
        ..UrbanConfig::default()
    });
    let mut dp = DataPolygamy::new(collection.geometry().clone(), Config::default());
    for d in collection.datasets.iter() {
        dp.add_dataset(d.clone());
    }
    let report = dp.build_index();
    println!(
        "indexed {} data sets / {} functions in {:.1}s",
        report.per_dataset.len(),
        dp.index().expect("built").functions.len(),
        report.total_secs
    );

    // Query everything against everything; keep confident relationships.
    let clause = Clause::default()
        .permutations(if quick { 100 } else { 300 })
        .min_score(0.5);
    let rels = dp
        .query(&RelationshipQuery::all().with_clause(clause))
        .expect("query succeeds");
    println!("significant relationships with |τ| >= 0.5: {}", rels.len());

    // Rank data sets by distinct partners (the paper's "most polygamous
    // data set" observation — weather wins).
    let mut partners: BTreeMap<&str, std::collections::BTreeSet<&str>> = BTreeMap::new();
    for r in &rels {
        partners
            .entry(r.left.dataset.as_ref())
            .or_default()
            .insert(r.right.dataset.as_ref());
        partners
            .entry(r.right.dataset.as_ref())
            .or_default()
            .insert(r.left.dataset.as_ref());
    }
    let mut ranked: Vec<(&str, usize)> = partners.iter().map(|(d, s)| (*d, s.len())).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("\nmost polygamous data sets (distinct partners):");
    for (dataset, n) in &ranked {
        println!("  {dataset:<16} {n}");
    }

    // Show the strongest relationship per data-set pair.
    println!("\nstrongest relationship per pair:");
    let mut best: BTreeMap<(&str, &str), &Relationship> = BTreeMap::new();
    for r in &rels {
        let key = (&*r.left.dataset, &*r.right.dataset);
        let current = best.get(&key);
        if current.is_none_or(|c| r.score().abs() > c.score().abs()) {
            best.insert(key, r);
        }
    }
    for r in best.values() {
        println!("  {r}");
    }
}

use polygamy_core::Relationship;
