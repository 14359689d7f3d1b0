//! Workspace smoke test: the quickstart example's path — build a city
//! geometry, index two synthetic data sets whose signals spike at shared
//! instants, query for relationships — must complete end-to-end and
//! surface the planted coupling. This is the fast canary the CI gate
//! leans on: if it breaks, every figure harness built on the same path is
//! broken too.

use polygamy_core::prelude::*;

fn spiky_dataset(name: &str, level: f64, spikes: &[i64], n_hours: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: format!("smoke-test data set {name}"),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..n_hours {
        let rhythm = ((h % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
        let spike = if spikes.contains(&h) { 25.0 } else { 0.0 };
        b.push(
            GeoPoint::new(0.5, 0.5),
            h * 3_600,
            &[level + rhythm + spike],
        )
        .expect("schema matches");
    }
    b.build().expect("dataset builds")
}

#[test]
fn quickstart_path_end_to_end() {
    // 1. Geometry: city scale only, as in the quickstart.
    let geometry = CityGeometry::city_only(0.0, 0.0, 1.0, 1.0);

    // 2. Two data sets with coincident spikes (a smaller clock than the
    //    example keeps the smoke test fast).
    let spikes = [70i64, 300, 610, 850, 990];
    let mut dp = DataPolygamy::new(geometry, Config::fast_test());
    dp.add_dataset(spiky_dataset("sensors-a", 10.0, &spikes, 1_100));
    dp.add_dataset(spiky_dataset("sensors-b", -3.0, &spikes, 1_100));

    // 3. Index.
    let report = dp.build_index();
    assert_eq!(report.per_dataset.len(), 2);
    for stat in &report.per_dataset {
        assert!(stat.n_functions > 0, "{} indexed nothing", stat.name);
    }
    let index = dp.index().expect("index built");
    assert!(!index.functions.is_empty());

    // 4. Query one relationship set.
    let query = RelationshipQuery::all().with_clause(Clause::default().permutations(120));
    let rels = dp.query(&query).expect("query succeeds");
    assert!(
        rels.iter().any(|r| r.score() > 0.8),
        "planted coupling should surface with a strong positive score; got {:?}",
        rels.iter().map(|r| r.score()).collect::<Vec<_>>()
    );
}
