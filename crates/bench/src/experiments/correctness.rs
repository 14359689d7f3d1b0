//! Section 6.2 (Correctness) — the 2011 vs 2012 taxi-density control
//! experiment: both years, aligned on the same clock, must be strongly and
//! significantly positively related.

use crate::{fnum, Table};
use polygamy_core::prelude::*;
use polygamy_stdata::CivilDate;

/// Runs the year-over-year control at (hour, city) and (hour, neighborhood).
pub fn run(quick: bool) -> String {
    let mut out = String::from("# Section 6.2 — correctness (taxi 2011 vs 2012)\n\n");
    out.push_str("Paper: (hour, city) τ=0.99 ρ=0.85; (hour, neighborhood) τ=1.0 ρ=0.87.\n\n");
    let c = super::urban(quick);
    let taxi = c.dataset("taxi").expect("taxi generated");
    let years = taxi.split_by_year();
    if years.len() < 2 {
        return out + "collection covers a single year; experiment skipped\n";
    }
    let (y1, d1) = &years[0];
    let (_, d2) = &years[1];
    // Shift year 2 back onto year 1's clock.
    let shift = CivilDate::new(y1 + 1, 1, 1).timestamp() - CivilDate::new(*y1, 1, 1).timestamp();
    let mut b = polygamy_stdata::DatasetBuilder::new(polygamy_stdata::DatasetMeta {
        name: "taxi-y2".into(),
        ..d2.meta.clone()
    });
    for a in &d2.attributes {
        b = b.attribute(a.clone());
    }
    for i in 0..d2.len() {
        let vals: Vec<f64> = (0..d2.attribute_count())
            .map(|a| d2.value_at(i, a).encode())
            .collect();
        b.push(d2.locations()[i], d2.times()[i] - shift, &vals)
            .expect("schema matches");
    }
    let d2s = b.build().expect("shifted year builds");

    let mut dp = DataPolygamy::new(
        c.geometry().clone(),
        polygamy_core::framework::Config::default(),
    );
    dp.add_dataset(d1.clone());
    dp.add_dataset(d2s);
    dp.build_index();
    let rels = dp
        .query(
            &RelationshipQuery::all().with_clause(
                Clause::default()
                    .permutations(super::permutations(quick))
                    .include_insignificant(),
            ),
        )
        .expect("query succeeds");

    let mut t = Table::new(&["resolution", "paper τ/ρ", "our τ", "our ρ", "significant"]);
    for (res, paper) in [
        (
            Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
            "0.99 / 0.85",
        ),
        (
            Resolution::new(SpatialResolution::Neighborhood, TemporalResolution::Hour),
            "1.00 / 0.87",
        ),
    ] {
        let found = rels.iter().find(|r| {
            r.resolution == res
                && &*r.left.function == "density"
                && &*r.right.function == "density"
                && r.class == FeatureClass::Salient
        });
        match found {
            Some(r) => {
                t.row(&[
                    res.label(),
                    paper.into(),
                    fnum(r.score(), 2),
                    fnum(r.strength(), 2),
                    r.significant.to_string(),
                ]);
            }
            None => {
                t.row(&[
                    res.label(),
                    paper.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    out.push_str(&t.render());
    out
}
