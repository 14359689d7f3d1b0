//! End-to-end relationship discovery over the NYC-Urban analogue.
//!
//! These tests exercise the full pipeline — generation → scalar functions →
//! merge trees → thresholds → features → relationship operator →
//! significance — and check that the planted couplings of
//! `polygamy-datagen` are recovered with the right signs, mirroring the
//! paper's Section 6.3 findings.
//!
//! Note: query results are canonicalised (the data set indexed first
//! appears on the left), so matching is orientation-agnostic; τ is
//! symmetric under swapping sides.

use polygamy_core::prelude::*;
use polygamy_core::Relationship;
use polygamy_datagen::{urban_collection, UrbanConfig};
use std::sync::OnceLock;

/// One shared small collection + built index for all tests in this file
/// (indexing is the expensive part).
fn framework() -> &'static DataPolygamy {
    static DP: OnceLock<DataPolygamy> = OnceLock::new();
    DP.get_or_init(|| {
        let collection = urban_collection(UrbanConfig {
            n_years: 1,
            scale: 0.05,
            extra_weather_attrs: 0,
            ..UrbanConfig::default()
        });
        let mut dp = DataPolygamy::new(
            collection.geometry().clone(),
            polygamy_core::framework::Config::default(),
        );
        for d in collection.datasets.iter() {
            dp.add_dataset(d.clone());
        }
        dp.build_index();
        dp
    })
}

fn base_clause() -> Clause {
    Clause::default().permutations(150)
}

/// Finds relationships between two named functions in either orientation.
fn matching<'a>(
    rels: &'a [Relationship],
    a: &str,
    b: &str,
) -> impl Iterator<Item = &'a Relationship> {
    let (a, b) = (a.to_string(), b.to_string());
    rels.iter().filter(move |r| {
        let l = r.left.to_string();
        let rr = r.right.to_string();
        (l == a && rr == b) || (l == b && rr == a)
    })
}

fn render(rels: &[Relationship]) -> String {
    rels.iter()
        .take(40)
        .map(|r| format!("  {r}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn rain_suppresses_taxi_activity() {
    let dp = framework();
    // Statistical power at coarse resolutions is limited on one simulated
    // year, so the paper's τ=-0.62/-0.81 findings are checked as: a
    // strongly negative candidate exists between taxi activity and
    // precipitation at some resolution.
    let rels = dp
        .query(
            &RelationshipQuery::between(&["taxi"], &["weather"])
                .with_clause(base_clause().include_insignificant()),
        )
        .unwrap();
    let found = matching(&rels, "taxi.density", "weather.avg(precipitation)")
        .chain(matching(&rels, "taxi.unique", "weather.avg(precipitation)"))
        .any(|r| r.score() <= -0.5);
    assert!(
        found,
        "expected strongly negative taxi-activity ~ precipitation; got:\n{}",
        render(&rels)
    );
}

#[test]
fn rain_raises_fares_significantly() {
    let dp = framework();
    // Paper: avg fare ~ precipitation, τ = 0.73, ρ = 0.7 (hour, city).
    let rels = dp
        .query(&RelationshipQuery::between(&["taxi"], &["weather"]).with_clause(base_clause()))
        .unwrap();
    let found = matching(&rels, "taxi.avg(fare)", "weather.avg(precipitation)")
        .any(|r| r.score() > 0.3 && r.significant);
    assert!(
        found,
        "expected significant positive fare ~ precipitation; got:\n{}",
        render(&rels)
    );
}

#[test]
fn hurricane_wind_extreme_features_relate_to_taxi_drop() {
    let dp = framework();
    // Paper Section 6.3: extreme features of wind speed relate negatively
    // to the number of trips (τ = −1, low ρ — holidays also dent trips).
    let rels = dp
        .query(
            &RelationshipQuery::between(&["taxi"], &["weather"]).with_clause(
                base_clause()
                    .class(FeatureClass::Extreme)
                    .include_insignificant(),
            ),
        )
        .unwrap();
    let found =
        matching(&rels, "taxi.density", "weather.avg(wind-speed)").any(|r| r.score() <= -0.9);
    assert!(
        found,
        "expected extreme-class wind ~ density with τ ≈ −1; got:\n{}",
        render(&rels)
    );
}

#[test]
fn rain_worsens_collision_severity() {
    let dp = framework();
    // Paper: rainfall ~ motorists killed τ=0.90, injured pedestrians
    // τ=0.75; frequency (density) shows no significant relationship.
    let rels = dp
        .query(
            &RelationshipQuery::between(&["collisions"], &["weather"]).with_clause(base_clause()),
        )
        .unwrap();
    let severity = matching(
        &rels,
        "collisions.avg(motorists-injured)",
        "weather.avg(precipitation)",
    )
    .any(|r| r.score() > 0.5 && r.significant);
    assert!(
        severity,
        "expected significant positive injured ~ precipitation; got:\n{}",
        render(&rels)
    );
}

#[test]
fn snow_stretches_bike_trips() {
    let dp = framework();
    // Paper: avg snow precipitation ~ avg bike trip duration, τ = 0.61.
    let rels = dp
        .query(&RelationshipQuery::between(&["citibike"], &["weather"]).with_clause(base_clause()))
        .unwrap();
    let found = matching(
        &rels,
        "citibike.avg(duration-min)",
        "weather.avg(snow-fall)",
    )
    .any(|r| r.score() > 0.5 && r.significant);
    assert!(
        found,
        "expected significant positive bike duration ~ snow-fall; got:\n{}",
        render(&rels)
    );
}

#[test]
fn snow_depth_idles_bike_stations() {
    let dp = framework();
    // Paper: snow precipitation ~ active Citi Bike stations, τ = −0.88 at
    // (day, city) — our analogue is the unique station count.
    let rels = dp
        .query(&RelationshipQuery::between(&["citibike"], &["weather"]).with_clause(base_clause()))
        .unwrap();
    let found = matching(&rels, "citibike.unique", "weather.avg(snow-depth)")
        .any(|r| r.score() < -0.5 && r.significant);
    assert!(
        found,
        "expected significant negative unique stations ~ snow depth; got:\n{}",
        render(&rels)
    );
}

#[test]
fn taxi_volume_slows_traffic() {
    let dp = framework();
    // Paper: number of taxi trips ~ average traffic speed, τ = −0.90 at
    // (hour, city).
    let rels = dp
        .query(
            &RelationshipQuery::between(&["taxi"], &["traffic-speed"]).with_clause(base_clause()),
        )
        .unwrap();
    let found = matching(&rels, "taxi.density", "traffic-speed.avg(speed-kmh)")
        .any(|r| r.score() < -0.3 && r.significant);
    assert!(
        found,
        "expected significant negative taxi ~ speed; got:\n{}",
        render(&rels)
    );
}

#[test]
fn collisions_relate_to_311_with_high_score() {
    let dp = framework();
    // Paper: collisions ~ 311 complaints τ = 0.99 at (hour, neighborhood).
    // Sparse count functions make the permutation null tight, so we check
    // the score shape; significance on 1 simulated year is not guaranteed.
    let rels = dp
        .query(
            &RelationshipQuery::between(&["collisions"], &["complaints-311"])
                .with_clause(base_clause().include_insignificant()),
        )
        .unwrap();
    let found =
        matching(&rels, "collisions.density", "complaints-311.density").any(|r| r.score() > 0.8);
    assert!(
        found,
        "expected collisions ~ 311 with τ > 0.8; got:\n{}",
        render(&rels)
    );
}

#[test]
fn significance_prunes_candidates() {
    let dp = framework();
    let all = dp
        .query(
            &RelationshipQuery::between(&["taxi"], &["twitter"])
                .with_clause(base_clause().include_insignificant()),
        )
        .unwrap();
    let kept = dp
        .query(&RelationshipQuery::between(&["taxi"], &["twitter"]).with_clause(base_clause()))
        .unwrap();
    assert!(
        kept.len() < all.len(),
        "significance must prune candidates: {} of {} kept",
        kept.len(),
        all.len()
    );
}

#[test]
fn weather_is_polygamous() {
    let dp = framework();
    let rels = dp
        .query(&RelationshipQuery::of("weather").with_clause(base_clause().min_score(0.3)))
        .unwrap();
    let partners: std::collections::BTreeSet<&str> = rels
        .iter()
        .map(|r| {
            if &*r.left.dataset == "weather" {
                &*r.right.dataset
            } else {
                &*r.left.dataset
            }
        })
        .collect();
    assert!(
        partners.len() >= 3,
        "weather should relate to several data sets, got {partners:?}"
    );
}

#[test]
fn results_sorted_and_typed() {
    let dp = framework();
    let rels = dp
        .query(
            &RelationshipQuery::between(&["taxi"], &["weather"])
                .with_clause(base_clause().include_insignificant()),
        )
        .unwrap();
    assert!(!rels.is_empty());
    for w in rels.windows(2) {
        assert!(w[0].score().abs() >= w[1].score().abs() - 1e-12);
    }
    for r in &rels {
        assert!((-1.0..=1.0).contains(&r.score()));
        assert!(
            (0.0..=1.0).contains(&r.strength()),
            "strength out of range: {r}"
        );
        assert!((0.0..=1.0).contains(&r.p_value));
    }
}
