//! Section 6.4 + Appendix D — comparison against PCC, MI and DTW.
//!
//! The baselines see the city-resolution time series only. Expectation
//! (paper): they catch global relationships (snow ~ bike duration, taxi ~
//! speed) but miss event-conditioned ones (rain ~ #taxis visible only
//! during rain) and inherently miss spatial ones (collisions ~ taxis per
//! neighborhood).

use crate::{fnum, Table};
use polygamy_core::pipeline::field_features;
use polygamy_core::relationship::evaluate_features;
use polygamy_stats::baselines::BaselineScores;
use polygamy_stdata::{aggregate, AggregateKind, Dataset, FunctionKind, TemporalResolution};

fn series(
    d: &Dataset,
    city: &polygamy_stdata::SpatialPartition,
    kind: FunctionKind,
    temporal: TemporalResolution,
    window: (i64, i64),
) -> Vec<f64> {
    aggregate(d, city, temporal, kind, Some(window))
        .expect("aggregates")
        .collapse_space(true)
}

fn attr_kind(d: &Dataset, name: &str) -> FunctionKind {
    FunctionKind::Attribute {
        attr: d.attribute_index(name).expect("attribute exists"),
        agg: AggregateKind::Mean,
    }
}

/// Runs the baseline comparison.
pub fn run(quick: bool) -> String {
    let mut out = String::from("# Section 6.4 — standard techniques comparison\n\n");
    let c = super::urban(quick);
    let city = &c.geometry().city;
    let window = (c.trace.start, c.trace.end());
    let taxi = c.dataset("taxi").expect("generated");
    let weather = c.dataset("weather").expect("generated");
    let bike = c.dataset("citibike").expect("generated");
    let traffic = c.dataset("traffic-speed").expect("generated");

    // Pairs: (label, series a, series b, paper verdict).
    let hourly = TemporalResolution::Hour;
    let pairs: Vec<(&str, Vec<f64>, Vec<f64>, &str)> = vec![
        (
            "snow-fall ~ bike duration",
            series(
                weather,
                city,
                attr_kind(weather, "snow-fall"),
                hourly,
                window,
            ),
            series(bike, city, attr_kind(bike, "duration-min"), hourly, window),
            "found by PCC and MI",
        ),
        (
            "taxi trips ~ traffic speed",
            series(taxi, city, FunctionKind::Density, hourly, window),
            series(
                traffic,
                city,
                attr_kind(traffic, "speed-kmh"),
                hourly,
                window,
            ),
            "found by PCC and DTW",
        ),
        (
            "rain ~ #taxis (event-conditioned)",
            series(
                weather,
                city,
                attr_kind(weather, "precipitation"),
                hourly,
                window,
            ),
            series(taxi, city, FunctionKind::Unique, hourly, window),
            "missed by all baselines",
        ),
        (
            "wind ~ taxi trips (event-conditioned)",
            series(
                weather,
                city,
                attr_kind(weather, "wind-speed"),
                hourly,
                window,
            ),
            series(taxi, city, FunctionKind::Density, hourly, window),
            "missed by all baselines",
        ),
    ];

    let mut t = Table::new(&[
        "pair",
        "PCC",
        "MI",
        "DTW",
        "polygamy τ (salient/extreme)",
        "paper verdict",
    ]);
    let adjacency = vec![vec![]];
    for (label, a, b, verdict) in &pairs {
        let scores = BaselineScores::of(a, b);
        // Data Polygamy's view of the same pair.
        let fa = polygamy_stdata::ScalarField::time_series(
            polygamy_stdata::Resolution::new(polygamy_stdata::SpatialResolution::City, hourly),
            hourly.bucket_of(window.0),
            a.clone(),
        );
        let fb = polygamy_stdata::ScalarField::time_series(
            polygamy_stdata::Resolution::new(polygamy_stdata::SpatialResolution::City, hourly),
            hourly.bucket_of(window.0),
            b.clone(),
        );
        let (feat_a, _) = field_features(&adjacency, &fa);
        let (feat_b, _) = field_features(&adjacency, &fb);
        let salient = evaluate_features(&feat_a.salient, &feat_b.salient);
        let extreme = evaluate_features(&feat_a.extreme, &feat_b.extreme);
        t.row(&[
            label.to_string(),
            fnum(scores.pcc, 2),
            fnum(scores.mi, 2),
            fnum(scores.dtw, 2),
            format!("{} / {}", fnum(salient.score, 2), fnum(extreme.score, 2)),
            verdict.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nReading: |PCC| near 0 on the event-conditioned pairs while the\n\
         polygamy extreme/salient τ is strongly signed reproduces the\n\
         paper's claim that global techniques miss relationships that are\n\
         only visible under unusual conditions. Spatial relationships\n\
         (collisions ~ taxis per neighborhood) are invisible to all three\n\
         baselines by construction: they consume one city-level series.\n",
    );
    out
}
