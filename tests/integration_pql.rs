//! PQL integration: the textual frontend is a lossless skin over the
//! programmatic query API.
//!
//! Three contracts, end to end:
//!
//! * **Round-trip** — for arbitrary `RelationshipQuery` values,
//!   `parse(print(q)) == q` and printing is idempotent (proptest);
//! * **Equivalence** — a PQL query and its builder-constructed twin
//!   produce *byte-identical* JSON results through `query_many`, for every
//!   clause predicate the language has;
//! * **Batch** — a `.pql` batch file compiles into the same flat
//!   `query_many` path, again byte-identical, with whole-file error spans.

use polygamy_core::pql::{parse_batch, parse_query, to_pql, PqlErrorKind};
use polygamy_core::prelude::*;
use polygamy_core::relationship::write_json_array;
use polygamy_core::significance::PermutationScheme;
use polygamy_core::DataPolygamy;
use polygamy_mapreduce::Cluster;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

// ---------------------------------------------------------------------------
// Round-trip: parse ∘ print = id over arbitrary queries.

/// Name pool mixing bare words, quote-needing names (spaces, reserved
/// words, non-ASCII, embedded quotes/backslashes) and hyphenated names.
const NAMES: [&str; 9] = [
    "taxi",
    "weather",
    "gas-prices",
    "with space",
    "and",
    "naïve",
    "q\"uote",
    "back\\slash",
    "line\nbreak\ttab",
];

const SPATIALS: [SpatialResolution; 4] = [
    SpatialResolution::Gps,
    SpatialResolution::Zip,
    SpatialResolution::Neighborhood,
    SpatialResolution::City,
];
const TEMPORALS: [TemporalResolution; 4] = [
    TemporalResolution::Hour,
    TemporalResolution::Day,
    TemporalResolution::Week,
    TemporalResolution::Month,
];

/// Generates arbitrary `RelationshipQuery` values, biased so every field
/// is sometimes at its default (exercising predicate omission) and
/// sometimes not.
struct ArbQuery;

impl proptest::strategy::Strategy for ArbQuery {
    type Value = RelationshipQuery;

    fn generate(&self, rng: &mut SmallRng) -> RelationshipQuery {
        fn collection(rng: &mut SmallRng) -> Option<Vec<String>> {
            match rng.gen_range(0..5u32) {
                0 => None,
                1 => Some(Vec::new()),
                n => Some(
                    (0..n)
                        .map(|_| NAMES[rng.gen_range(0..NAMES.len())].to_string())
                        .collect(),
                ),
            }
        }
        let mut clause = Clause::default();
        if rng.gen_bool(0.5) {
            clause.min_score = rng.gen_range(-2.0..2.0f64);
        }
        if rng.gen_bool(0.5) {
            clause.min_strength = rng.gen_range(0.0..1.0f64);
        }
        clause.class = match rng.gen_range(0..3u32) {
            0 => None,
            1 => Some(FeatureClass::Salient),
            _ => Some(FeatureClass::Extreme),
        };
        if rng.gen_bool(0.5) {
            clause.alpha = rng.gen_range(0.001..0.2f64);
        }
        if rng.gen_bool(0.5) {
            clause.permutations = rng.gen_range(0..10_000usize);
        }
        clause.significant_only = rng.gen_bool(0.5);
        if rng.gen_bool(0.5) {
            let n = rng.gen_range(0..4usize);
            clause.resolutions = Some(
                (0..n)
                    .map(|_| {
                        Resolution::new(
                            SPATIALS[rng.gen_range(0..4usize)],
                            TEMPORALS[rng.gen_range(0..4usize)],
                        )
                    })
                    .collect(),
            );
        }
        // Thresholds data sets must be distinct: PQL rejects a repeated
        // `thresholds` entry for the same name (DuplicateThresholds).
        let mut pool: Vec<&str> = NAMES.to_vec();
        for _ in 0..rng.gen_range(0..3u32) {
            let dataset = pool.remove(rng.gen_range(0..pool.len())).to_string();
            clause
                .thresholds
                .push(polygamy_core::query::DatasetThresholds {
                    dataset,
                    theta_pos: rng.gen_range(-10.0..10.0f64),
                    theta_neg: rng.gen_range(-10.0..10.0f64),
                });
        }
        clause.scheme = match rng.gen_range(0..3u32) {
            0 => None,
            1 => Some(PermutationScheme::Paper),
            _ => Some(PermutationScheme::SpatioTemporal),
        };
        RelationshipQuery {
            left: collection(rng),
            right: collection(rng),
            clause,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse(print(q)) == q for arbitrary queries, and the canonical text
    /// is a fixed point of print ∘ parse.
    #[test]
    fn pql_round_trips(query in ArbQuery) {
        let printed = to_pql(&query);
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("canonical PQL must parse:\n{}", e.render(&printed)));
        prop_assert_eq!(&reparsed, &query);
        prop_assert_eq!(to_pql(&reparsed), printed);
    }
}

// ---------------------------------------------------------------------------
// Equivalence: PQL queries and builder queries give byte-identical JSON
// results through query_many.

fn spiky_dataset(name: &str, level: f64, bump_at: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..400i64 {
        let v = if h == bump_at || h == bump_at + 61 {
            40.0
        } else {
            level + (h % 24) as f64 * 0.05
        };
        b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v])
            .expect("schema matches");
    }
    b.build().expect("dataset builds")
}

fn build_framework() -> DataPolygamy {
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config {
            cluster: Cluster::local(2),
            ..Config::fast_test()
        },
    );
    for d in [
        spiky_dataset("alpha", 1.0, 100),
        spiky_dataset("beta", -2.0, 100),
        spiky_dataset("gamma", 0.5, 222),
    ] {
        dp.add_dataset(d);
    }
    dp.build_index();
    dp
}

fn json(rels: &[Relationship]) -> String {
    let mut out = String::new();
    write_json_array(&mut out, rels).expect("relationships serialize");
    out
}

/// Every clause predicate, written once in PQL and once with the builder.
/// Both the parsed structs and the `query_many` result bytes must agree.
#[test]
fn pql_matches_builder_byte_for_byte() {
    let base = Clause::default().permutations(40).include_insignificant();
    let cases: Vec<(&str, RelationshipQuery)> = vec![
        (
            "between alpha and beta where permutations = 40 and include insignificant",
            RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(base.clone()),
        ),
        (
            "between alpha, beta and * where score >= 0.5 and permutations = 40 \
             and include insignificant",
            RelationshipQuery {
                left: Some(vec!["alpha".into(), "beta".into()]),
                right: None,
                clause: base.clone().min_score(0.5),
            },
        ),
        (
            "between gamma and * where strength >= 0.1 and class = salient and \
             permutations = 40 and include insignificant",
            RelationshipQuery::of("gamma")
                .with_clause(base.clone().min_strength(0.1).class(FeatureClass::Salient)),
        ),
        (
            "between * and * where alpha = 0.2 and permutations = 40",
            RelationshipQuery::all().with_clause(Clause::default().alpha(0.2).permutations(40)),
        ),
        (
            "between alpha and beta where resolution = city-hour and permutations = 40 \
             and include insignificant",
            RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(
                base.clone().at_resolution(Resolution::new(
                    SpatialResolution::City,
                    TemporalResolution::Hour,
                )),
            ),
        ),
        (
            "between alpha and beta where thresholds alpha (5, -5) and permutations = 40 \
             and include insignificant",
            RelationshipQuery::between(&["alpha"], &["beta"])
                .with_clause(base.clone().with_thresholds("alpha", 5.0, -5.0)),
        ),
        (
            "between alpha and beta where scheme = spatiotemporal and permutations = 40 \
             and include insignificant",
            RelationshipQuery::between(&["alpha"], &["beta"])
                .with_clause(base.with_scheme(PermutationScheme::SpatioTemporal)),
        ),
    ];

    let parsed: Vec<RelationshipQuery> = cases
        .iter()
        .map(|(src, _)| {
            parse_query(src).unwrap_or_else(|e| panic!("valid PQL:\n{}", e.render(src)))
        })
        .collect();
    for ((src, built), p) in cases.iter().zip(&parsed) {
        assert_eq!(p, built, "PQL `{src}` compiles to the builder query");
    }

    let dp = build_framework();
    let built: Vec<RelationshipQuery> = cases.into_iter().map(|(_, q)| q).collect();
    let from_builder = dp.query_many(&built).expect("builder batch evaluates");
    let from_pql = dp.query_many(&parsed).expect("PQL batch evaluates");
    assert!(
        from_builder.iter().any(|r| !r.is_empty()),
        "equivalence must be non-trivial"
    );
    for (i, (b, p)) in from_builder.iter().zip(&from_pql).enumerate() {
        assert_eq!(json(b), json(p), "query {i} results byte-identical");
    }
}

/// A batch file compiles through `query_many` to the same bytes as its
/// queries parsed and run one by one.
#[test]
fn batch_file_matches_individual_queries() {
    let batch_src = "\
# regression sweep over the toy corpus\n\
between alpha and beta where permutations = 40 and include insignificant\n\
\n\
between gamma and * where class = extreme and permutations = 40 and include insignificant\n\
between * and * where score >= 0.5 and permutations = 40 and include insignificant\n";
    let batch =
        parse_batch(batch_src).unwrap_or_else(|e| panic!("valid batch:\n{}", e.render(batch_src)));
    assert_eq!(batch.len(), 3);

    let dp = build_framework();
    let batched = dp.query_many(&batch).expect("batch evaluates");
    for (q, rels) in batch.iter().zip(&batched) {
        let single = dp.query(q).expect("single query evaluates");
        assert_eq!(
            json(&single),
            json(rels),
            "batch result for `{}`",
            to_pql(q)
        );
    }
}

// ---------------------------------------------------------------------------
// Error spans at the integration surface.

#[test]
fn batch_errors_carry_whole_file_spans() {
    let src = "between alpha and beta\nbetween gamma and * where score > 0.5\n";
    let err = parse_batch(src).expect_err("bare `>` is rejected");
    assert_eq!(err.kind, PqlErrorKind::LoneGt);
    assert_eq!(&src[err.span.start..err.span.end], ">");
    let rendered = err.render(src);
    assert!(rendered.contains("line 2"), "{rendered}");
    assert!(rendered.contains("PQL comparisons use `>=`"), "{rendered}");
}

#[test]
fn unknown_dataset_is_a_query_error_not_a_parse_error() {
    let dp = build_framework();
    let q = parse_query("between nosuch and *").expect("parses fine");
    assert!(
        dp.query(&q).is_err(),
        "unknown data set surfaces at query time"
    );
}
