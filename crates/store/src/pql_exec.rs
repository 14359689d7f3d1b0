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
//! hold *because* both sides call [`PqlOutcome::to_json`].
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
use polygamy_core::relationship::Relationship;
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
        let query =
            serde_json::to_string(&to_pql(&self.query)).expect("strings serialize infallibly");
        let relationships =
            serde_json::to_string(&self.relationships).expect("relationships serialize");
        format!("{{\"query\":{query},\"relationships\":{relationships}}}")
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
        // The relationships array is the plain serde rendering, so the
        // framework's byte-identity guarantees carry over verbatim.
        assert!(
            json.ends_with(&format!(
                "\"relationships\":{}}}",
                serde_json::to_string(&outcome().relationships).unwrap()
            )),
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
