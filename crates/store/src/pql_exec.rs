//! One shared PQL execute-and-render path for every frontend.
//!
//! The CLI `query`, the interactive REPL and the `polygamy-serve` network
//! daemon (see `docs/serving.md`) all speak the same contract: PQL text
//! in, relationship results out, rendered either as human-readable text or
//! as one **canonical JSON object per query**.
//! This module is that contract's single implementation — parse
//! ([`parse_query`]/[`parse_batch`]) → [`StoreSession::query_many`] →
//! render — so the frontends cannot drift apart. The byte-identity
//! guarantees the daemon documents (a coalesced network response equals
//! the offline `polygamy-store query --json` output for the same query)
//! hold *because* both sides render through [`write_outcome_json`] — the
//! offline side by way of [`PqlOutcome::to_json`].
//!
//! ```
//! use polygamy_core::prelude::*;
//! use polygamy_core::DataPolygamy;
//! use polygamy_store::{execute_pql_batch, Store, StoreSession};
//!
//! # let meta = DatasetMeta {
//! #     name: "sensor".into(),
//! #     spatial_resolution: SpatialResolution::City,
//! #     temporal_resolution: TemporalResolution::Hour,
//! #     description: String::new(),
//! # };
//! # let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
//! # for h in 0..96i64 {
//! #     let v = if h == 30 { 9.0 } else { (h % 24) as f64 * 0.1 };
//! #     b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v]).unwrap();
//! # }
//! # let mut dp = DataPolygamy::new(
//! #     CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
//! #     Config::fast_test(),
//! # );
//! # dp.add_dataset(b.build().unwrap());
//! # dp.build_index();
//! # let path = std::env::temp_dir().join(format!("plst-exec-doc-{}.plst", std::process::id()));
//! # Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
//! let session = StoreSession::open(&path).unwrap();
//! let outcomes = execute_pql_batch(&session, "between sensor and *").unwrap();
//! assert_eq!(outcomes.len(), 1);
//! // One data set → no candidate pairs; the canonical JSON still names
//! // the query it answers.
//! assert_eq!(
//!     outcomes[0].to_json(),
//!     r#"{"query":"between sensor and *","relationships":[]}"#
//! );
//! # std::fs::remove_file(&path).unwrap();
//! ```

use crate::error::StoreError;
use crate::session::StoreSession;
use polygamy_core::pql::{parse_batch, parse_query, to_pql, PqlError};
use polygamy_core::query::RelationshipQuery;
use polygamy_core::relationship::{write_json_array, Relationship};
use polygamy_obs::trace::{self, Trace};
use std::fmt;

/// Why a piece of PQL text could not be served.
#[derive(Debug)]
pub enum PqlServeError {
    /// The text failed to lex or parse. Render with the source at hand
    /// ([`PqlError::render`]) for the caret diagnostic every frontend
    /// shows.
    Parse(PqlError),
    /// The queries parsed but evaluation failed (unknown data set, store
    /// corruption surfacing lazily, …).
    Execute(StoreError),
}

impl fmt::Display for PqlServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PqlServeError::Parse(e) => write!(f, "{e}"),
            PqlServeError::Execute(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PqlServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PqlServeError::Parse(e) => Some(e),
            PqlServeError::Execute(e) => Some(e),
        }
    }
}

/// One executed PQL query together with its results — the unit every
/// frontend renders, textually or as canonical JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct PqlOutcome {
    /// The parsed query (print with [`to_pql`] for the canonical text).
    pub query: RelationshipQuery,
    /// The relationships the query matched, in the executor's
    /// deterministic order.
    pub relationships: Vec<Relationship>,
    /// The execution trace, when the frontend requested one (`--trace`,
    /// PQL `explain`). **Never** part of [`PqlOutcome::to_json`] or
    /// [`PqlOutcome::render_text`]: the normative result renderings are
    /// byte-identical with tracing on and off. Batch execution runs all
    /// queries through one dispatch, so every outcome of a traced batch
    /// carries the same whole-batch trace.
    pub trace: Option<Trace>,
}

impl PqlOutcome {
    /// Renders the canonical single-line JSON object for this outcome:
    ///
    /// ```text
    /// {"query":"<canonical PQL>","relationships":[…]}
    /// ```
    ///
    /// This is the *normative* per-query response rendering of the wire
    /// protocol (`docs/serving.md` §5): the daemon's `R` frames and the
    /// offline `polygamy-store query --json` output are both exactly this
    /// string, byte for byte.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_outcome_json(&mut out, &self.query, &self.relationships);
        out
    }

    /// Renders the human-readable report the CLI and REPL print: a
    /// ``N relationship(s) for `<query>`:`` header plus one indented
    /// line per relationship.
    pub fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = format!(
            "{} relationship(s) for `{}`:",
            self.relationships.len(),
            to_pql(&self.query)
        );
        for rel in &self.relationships {
            write!(out, "\n  {rel}").expect("writing to a String cannot fail");
        }
        out
    }
}

/// Appends the [`PqlOutcome::to_json`] object of `query` answered by
/// `relationships` to `out`, reserving room for all of it first, so that a
/// response of many lines renders into one buffer — the daemon's, which
/// shares a request's parsed queries with the coalescer's queue instead of
/// owning them.
pub fn write_outcome_json(
    out: &mut String,
    query: &RelationshipQuery,
    relationships: &[Relationship],
) {
    let query = to_pql(query);
    // A relationship's object is ≈ 300 bytes with urban-length names.
    out.reserve(32 + 2 * query.len() + 320 * relationships.len());
    out.push_str("{\"query\":");
    polygamy_json::write_str(out, &query);
    out.push_str(",\"relationships\":");
    // Every measure is finite: τ ∈ [−1, 1], ρ and p ∈ [0, 1].
    write_json_array(out, relationships).expect("relationships serialize");
    out.push('}');
}

/// Parses `src` as a single PQL query (newlines and comments allowed) and
/// executes it — the REPL and `query --pql` path.
pub fn execute_pql_query(session: &StoreSession, src: &str) -> Result<PqlOutcome, PqlServeError> {
    let query = parse_query(src).map_err(PqlServeError::Parse)?;
    let mut outcomes = run(session, vec![query])?;
    Ok(outcomes.pop().expect("one query in, one outcome out"))
}

/// [`execute_pql_query`] with a trace collector installed: the returned
/// outcome carries a [`Trace`] covering parse and execution. The
/// relationships — and their canonical renderings — are byte-identical to
/// the untraced call's.
pub fn execute_pql_query_traced(
    session: &StoreSession,
    src: &str,
) -> Result<PqlOutcome, PqlServeError> {
    let (result, trace) = trace::record(|| {
        let query = {
            let _span = trace::span("parse");
            parse_query(src).map_err(PqlServeError::Parse)?
        };
        let mut outcomes = run(session, vec![query])?;
        Ok(outcomes.pop().expect("one query in, one outcome out"))
    });
    result.map(|outcome: PqlOutcome| PqlOutcome {
        trace: Some(trace),
        ..outcome
    })
}

/// Parses `src` as a PQL batch (one query per line, `#` comments) and
/// executes every query through one [`StoreSession::query_many`] dispatch
/// — the `query --file` and network-request path. An empty batch is a
/// valid request and yields no outcomes.
pub fn execute_pql_batch(
    session: &StoreSession,
    src: &str,
) -> Result<Vec<PqlOutcome>, PqlServeError> {
    let queries = parse_batch(src).map_err(PqlServeError::Parse)?;
    run(session, queries)
}

/// [`execute_pql_batch`] with a trace collector installed. The batch runs
/// through one dispatch, so one [`Trace`] covers it end to end; every
/// returned outcome carries a clone of that whole-batch trace.
pub fn execute_pql_batch_traced(
    session: &StoreSession,
    src: &str,
) -> Result<Vec<PqlOutcome>, PqlServeError> {
    let (result, trace) = trace::record(|| {
        let queries = {
            let _span = trace::span("parse");
            parse_batch(src).map_err(PqlServeError::Parse)?
        };
        run(session, queries)
    });
    result.map(|outcomes| {
        outcomes
            .into_iter()
            .map(|outcome| PqlOutcome {
                trace: Some(trace.clone()),
                ..outcome
            })
            .collect()
    })
}

/// The shared execution tail: one `query_many` over the whole batch.
fn run(
    session: &StoreSession,
    queries: Vec<RelationshipQuery>,
) -> Result<Vec<PqlOutcome>, PqlServeError> {
    let results = session
        .query_many(&queries)
        .map_err(PqlServeError::Execute)?;
    Ok(queries
        .into_iter()
        .zip(results)
        .map(|(query, relationships)| PqlOutcome {
            query,
            relationships,
            trace: None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_core::function::FunctionRef;
    use polygamy_core::relationship::RelationshipMeasures;
    use polygamy_stdata::{Resolution, SpatialResolution, TemporalResolution};
    use polygamy_topology::FeatureClass;

    fn outcome() -> PqlOutcome {
        PqlOutcome {
            query: RelationshipQuery::between(&["taxi"], &["weather"]),
            relationships: vec![Relationship {
                left: FunctionRef {
                    dataset: "taxi".into(),
                    function: "density".into(),
                },
                right: FunctionRef {
                    dataset: "weather".into(),
                    function: "avg(wind)".into(),
                },
                resolution: Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
                class: FeatureClass::Salient,
                measures: RelationshipMeasures {
                    n_pos: 1,
                    n_neg: 3,
                    n_left: 5,
                    n_right: 5,
                    score: -0.5,
                    strength: 0.8,
                },
                p_value: 0.002,
                significant: true,
            }],
            trace: None,
        }
    }

    #[test]
    fn json_rendering_is_canonical_and_single_line() {
        let json = outcome().to_json();
        assert!(
            json.starts_with(r#"{"query":"between taxi and weather","#),
            "{json}"
        );
        assert!(!json.contains('\n'), "{json}");
        // The relationships array is the framework's own rendering, so its
        // byte-identity guarantees carry over verbatim.
        let mut relationships = String::new();
        write_json_array(&mut relationships, &outcome().relationships).unwrap();
        assert!(
            json.ends_with(&format!("\"relationships\":{relationships}}}")),
            "{json}"
        );
    }

    /// The bytes of the results boundary (`docs/serving.md` §5): field
    /// names and order, unit variants as their names, the nested
    /// resolution object, integers bare, integral floats with `.0`,
    /// shortest round-trip digits, escaped quotes. Served responses and
    /// `query --json` output are compared and stored by consumers; these
    /// bytes may only change together with the wire protocol version.
    #[test]
    fn json_rendering_bytes_are_pinned() {
        let rel = |class, spatial, temporal, score, strength, p_value, significant| Relationship {
            left: FunctionRef {
                dataset: "taxi".into(),
                function: "density".into(),
            },
            right: FunctionRef {
                dataset: "weather".into(),
                function: "avg(wind \"gust\")".into(),
            },
            resolution: Resolution::new(spatial, temporal),
            class,
            measures: RelationshipMeasures {
                n_pos: 1,
                n_neg: 3,
                n_left: 5,
                n_right: 40,
                score,
                strength,
            },
            p_value,
            significant,
        };
        let pinned = PqlOutcome {
            query: RelationshipQuery::between(&["taxi"], &["weather"]),
            relationships: vec![
                rel(
                    FeatureClass::Salient,
                    SpatialResolution::City,
                    TemporalResolution::Hour,
                    -0.5,
                    0.17777777777777778,
                    2.0 / 1001.0,
                    true,
                ),
                rel(
                    FeatureClass::Extreme,
                    SpatialResolution::Neighborhood,
                    TemporalResolution::Week,
                    1.0,
                    1.0,
                    1.0,
                    false,
                ),
            ],
            trace: None,
        };
        assert_eq!(
            pinned.to_json(),
            concat!(
                r#"{"query":"between taxi and weather","relationships":["#,
                r#"{"left":{"dataset":"taxi","function":"density"},"#,
                r#""right":{"dataset":"weather","function":"avg(wind \"gust\")"},"#,
                r#""resolution":{"spatial":"City","temporal":"Hour"},"class":"Salient","#,
                r#""measures":{"n_pos":1,"n_neg":3,"n_left":5,"n_right":40,"#,
                r#""score":-0.5,"strength":0.17777777777777778},"#,
                r#""p_value":0.001998001998001998,"significant":true},"#,
                r#"{"left":{"dataset":"taxi","function":"density"},"#,
                r#""right":{"dataset":"weather","function":"avg(wind \"gust\")"},"#,
                r#""resolution":{"spatial":"Neighborhood","temporal":"Week"},"class":"Extreme","#,
                r#""measures":{"n_pos":1,"n_neg":3,"n_left":5,"n_right":40,"#,
                r#""score":1.0,"strength":1.0},"#,
                r#""p_value":1.0,"significant":false}]}"#,
            )
        );
    }

    /// Every escape class — quote, backslash, the three named controls, a
    /// `\u00XX` control, DEL (not escaped) — plus 2-, 3- and 4-byte UTF-8.
    const PALETTE: [char; 14] = [
        'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '→', '🦀',
    ];

    /// Floats whose rendering takes a branch of its own: signed zeros,
    /// integral on both sides of the `.1` rule's 1e15 bound, subnormals,
    /// NaN (written `null`).
    const FLOATS: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -3.0,
        999_999_999_999_999.0,
        1e15,
        -1e15,
        1.5e300,
        5e-324,
        2.2250738585072014e-308,
        f64::NAN,
        0.1,
    ];

    /// A name of 0–6 palette characters.
    fn name(w: u64) -> String {
        (0..w % 7)
            .map(|k| PALETTE[(w >> (8 * k + 3)) as usize % PALETTE.len()])
            .collect()
    }

    /// A relationship drawn from a stream of random words.
    fn arbitrary_relationship(words: &mut impl Iterator<Item = u64>) -> Relationship {
        let mut next = || words.next().unwrap_or(0);
        let float = |w: u64| match w % 3 {
            0 => FLOATS[(w >> 2) as usize % FLOATS.len()],
            1 => Some(f64::from_bits(w))
                .filter(|f| !f.is_infinite())
                .unwrap_or(f64::NAN),
            _ => (w >> 2) as i32 as f64 / 8.0,
        };
        let function = |dataset: String, function: String| FunctionRef {
            dataset: dataset.into(),
            function: function.into(),
        };
        let w = next();
        Relationship {
            left: function(name(next()), name(next())),
            right: function(name(next()), name(next())),
            resolution: Resolution::new(
                [
                    SpatialResolution::Gps,
                    SpatialResolution::Zip,
                    SpatialResolution::Neighborhood,
                    SpatialResolution::City,
                ][w as usize % 4],
                TemporalResolution::ALL[(w >> 2) as usize % 4],
            ),
            class: FeatureClass::ALL[(w >> 4) as usize % 2],
            measures: RelationshipMeasures {
                n_pos: next() as usize,
                n_neg: next() as usize,
                n_left: next() as usize,
                n_right: next() as usize,
                score: float(next()),
                strength: float(next()),
            },
            p_value: float(next()),
            significant: w & 64 == 0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(300))]

        /// What `to_json` writes, `polygamy_json::parse` reads back field by
        /// field: keys in declaration order, strings char for char, counts
        /// exactly, floats bit for bit (NaN as `null`).
        #[test]
        fn json_rendering_parses_back_to_every_field(
            words in proptest::collection::vec(0u64..u64::MAX, 1..100)
        ) {
            let mut words = words.iter().copied();
            let count = words.next().unwrap_or(0) % 4;
            let (a, b) = (name(words.next().unwrap_or(0)), name(words.next().unwrap_or(0)));
            let outcome = PqlOutcome {
                query: RelationshipQuery::between(&[&a], &[&b]),
                relationships: (0..count).map(|_| arbitrary_relationship(&mut words)).collect(),
                trace: None,
            };
            let root = polygamy_json::parse(&outcome.to_json()).unwrap();
            let keys = |v: &polygamy_json::Value| -> Vec<String> {
                v.as_object().unwrap().iter().map(|(k, _)| k.clone()).collect()
            };
            let text = |v: &polygamy_json::Value, key| v.get(key).unwrap().as_str().unwrap().to_owned();
            let float = |v: &polygamy_json::Value, key| v.get(key).unwrap().as_f64().unwrap();
            let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            proptest::prop_assert_eq!(keys(&root), ["query", "relationships"]);
            proptest::prop_assert_eq!(text(&root, "query"), to_pql(&outcome.query));
            let parsed = root.get("relationships").unwrap().as_array().unwrap();
            proptest::prop_assert_eq!(parsed.len(), outcome.relationships.len());
            for (v, rel) in parsed.iter().zip(&outcome.relationships) {
                proptest::prop_assert_eq!(
                    keys(v),
                    ["left", "right", "resolution", "class", "measures", "p_value", "significant"]
                );
                for (key, function) in [("left", &rel.left), ("right", &rel.right)] {
                    let f = v.get(key).unwrap();
                    proptest::prop_assert_eq!(keys(f), ["dataset", "function"]);
                    proptest::prop_assert_eq!(&*text(f, "dataset"), &*function.dataset);
                    proptest::prop_assert_eq!(&*text(f, "function"), &*function.function);
                }
                let resolution = v.get("resolution").unwrap();
                proptest::prop_assert_eq!(keys(resolution), ["spatial", "temporal"]);
                proptest::prop_assert_eq!(text(resolution, "spatial"), rel.resolution.spatial.name());
                proptest::prop_assert_eq!(text(resolution, "temporal"), rel.resolution.temporal.name());
                proptest::prop_assert_eq!(text(v, "class"), rel.class.name());
                let m = v.get("measures").unwrap();
                proptest::prop_assert_eq!(
                    keys(m),
                    ["n_pos", "n_neg", "n_left", "n_right", "score", "strength"]
                );
                let counts = ["n_pos", "n_neg", "n_left", "n_right"]
                    .map(|key| m.get(key).unwrap().as_int::<usize>().unwrap());
                let measures = &rel.measures;
                proptest::prop_assert_eq!(
                    counts,
                    [measures.n_pos, measures.n_neg, measures.n_left, measures.n_right]
                );
                proptest::prop_assert!(same(float(m, "score"), measures.score));
                proptest::prop_assert!(same(float(m, "strength"), measures.strength));
                proptest::prop_assert!(same(float(v, "p_value"), rel.p_value));
                proptest::prop_assert_eq!(
                    v.get("significant").unwrap().as_bool().unwrap(),
                    rel.significant
                );
            }
        }
    }

    /// `to_json` as it was written with `write!`, before it pushed strings
    /// and digits itself: the oracle the byte-identity proptest holds the
    /// writer to. Its escapes are spelled per character, not taken from
    /// `polygamy_json`.
    fn to_json_with_fmt(outcome: &PqlOutcome) -> String {
        use std::fmt::Write as _;
        fn string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if c < ' ' => write!(out, "\\u{:04x}", c as u32).unwrap(),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        fn float(out: &mut String, f: f64) {
            if f.is_nan() {
                out.push_str("null");
            } else if f.fract() == 0.0 && f.abs() < 1e15 {
                write!(out, "{f:.1}").unwrap();
            } else {
                write!(out, "{f}").unwrap();
            }
        }
        let mut out = String::from("{\"query\":");
        string(&mut out, &to_pql(&outcome.query));
        out.push_str(",\"relationships\":[");
        for (i, r) in outcome.relationships.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            for (key, f) in [("{\"left\":", &r.left), (",\"right\":", &r.right)] {
                out.push_str(key);
                out.push_str("{\"dataset\":");
                string(&mut out, &f.dataset);
                out.push_str(",\"function\":");
                string(&mut out, &f.function);
                out.push('}');
            }
            let m = &r.measures;
            write!(
                out,
                ",\"resolution\":{{\"spatial\":\"{}\",\"temporal\":\"{}\"}},\"class\":\"{}\",\
                 \"measures\":{{\"n_pos\":{},\"n_neg\":{},\"n_left\":{},\"n_right\":{},\"score\":",
                r.resolution.spatial.name(),
                r.resolution.temporal.name(),
                r.class.name(),
                m.n_pos,
                m.n_neg,
                m.n_left,
                m.n_right
            )
            .unwrap();
            float(&mut out, m.score);
            out.push_str(",\"strength\":");
            float(&mut out, m.strength);
            out.push_str("},\"p_value\":");
            float(&mut out, r.p_value);
            write!(out, ",\"significant\":{}}}", r.significant).unwrap();
        }
        out.push_str("]}");
        out
    }

    /// Counts of every digit length, both ends of `usize` included.
    const COUNTS: [usize; 8] = [
        0,
        1,
        9,
        10,
        99,
        1_000_000_007,
        u32::MAX as usize,
        usize::MAX,
    ];

    /// Floats that need all 17 significant digits to round-trip.
    const LONG_FLOATS: [f64; 4] = [
        0.30000000000000004,
        1.2345678901234567,
        -0.12345678901234568,
        123_456.789_012_345_68,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(500))]

        /// The writer renders every outcome byte for byte as the `write!`
        /// oracle does, alone and appended after another outcome's line
        /// (as the daemon renders a response): names with every escape
        /// class, floats on every branch of the float rule (NaN, ±0.0,
        /// integral below and at or above 1e15, subnormals, 17
        /// significant digits, arbitrary bits), counts of every length.
        #[test]
        fn json_rendering_is_byte_identical_to_the_fmt_writer(
            words in proptest::collection::vec(0u64..u64::MAX, 1..120)
        ) {
            let mut words = words.iter().copied();
            let mut next = || words.next().unwrap_or(0);
            let float = |w: u64| match w % 5 {
                0 => FLOATS[(w >> 3) as usize % FLOATS.len()],
                1 => LONG_FLOATS[(w >> 3) as usize % LONG_FLOATS.len()],
                // Integral, on both sides of 1e15 and of 2⁵³.
                2 => ((w >> 3) % (1 << 55)) as f64 * if w & 4 == 0 { 1.0 } else { -1.0 },
                3 => Some(f64::from_bits(w.rotate_right(3)))
                    .filter(|f| !f.is_infinite())
                    .unwrap_or(0.25),
                _ => (w >> 3) as i32 as f64 / 1024.0,
            };
            let count = |w: u64| match w % 3 {
                0 => COUNTS[(w >> 2) as usize % COUNTS.len()],
                1 => (w >> 2) as usize % 100_000,
                _ => w as usize,
            };
            let outcomes: Vec<PqlOutcome> = (0..2)
                .map(|_| {
                    let (a, b) = (name(next()), name(next()));
                    let n = next() % 4;
                    let relationships = (0..n)
                        .map(|_| {
                            let mut seed = [next(), next(), next(), next(), next(), next()].into_iter();
                            let mut r = arbitrary_relationship(&mut seed);
                            r.measures.n_pos = count(next());
                            r.measures.n_neg = count(next());
                            r.measures.n_left = count(next());
                            r.measures.n_right = count(next());
                            r.measures.score = float(next());
                            r.measures.strength = float(next());
                            r.p_value = float(next());
                            r.significant = next() & 1 == 0;
                            r
                        })
                        .collect();
                    PqlOutcome {
                        query: RelationshipQuery::between(&[&a], &[&b]),
                        relationships,
                        trace: None,
                    }
                })
                .collect();
            let expected: Vec<String> = outcomes.iter().map(to_json_with_fmt).collect();
            proptest::prop_assert_eq!(outcomes[0].to_json(), expected[0].clone());
            let mut body = String::new();
            for (i, outcome) in outcomes.iter().enumerate() {
                if i > 0 {
                    body.push('\n');
                }
                write_outcome_json(&mut body, &outcome.query, &outcome.relationships);
            }
            proptest::prop_assert_eq!(body, expected.join("\n"));
        }
    }

    #[test]
    fn text_rendering_matches_historical_cli_shape() {
        let text = outcome().render_text();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "1 relationship(s) for `between taxi and weather`:"
        );
        let body = lines.next().unwrap();
        assert!(
            body.starts_with("  taxi.density ~ weather.avg(wind)"),
            "{body}"
        );
    }

    #[test]
    fn trace_is_invisible_to_renderings() {
        let mut traced = outcome();
        traced.trace = Some(Trace::default());
        assert_eq!(traced.to_json(), outcome().to_json());
        assert_eq!(traced.render_text(), outcome().render_text());
        assert_ne!(traced, outcome(), "the trace itself still compares");
    }

    #[test]
    fn empty_results_render() {
        let empty = PqlOutcome {
            query: RelationshipQuery::of("taxi"),
            relationships: Vec::new(),
            trace: None,
        };
        assert_eq!(
            empty.to_json(),
            r#"{"query":"between taxi and *","relationships":[]}"#
        );
        assert_eq!(
            empty.render_text(),
            "0 relationship(s) for `between taxi and *`:"
        );
    }
}
