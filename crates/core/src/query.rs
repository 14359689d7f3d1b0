//! Relationship queries and clauses (paper Section 5.3).
//!
//! The general query form is *find relationships between D1 and D2
//! satisfying clause*, where D1/D2 are collections of data sets (D2
//! defaults to the whole corpus) and the optional clause filters on score,
//! strength, feature class, resolution, significance level, or supplies
//! user-defined feature thresholds.

use crate::cache::Fnv1a;
use crate::significance::PermutationScheme;
use polygamy_stdata::Resolution;
use polygamy_topology::FeatureClass;

/// User-supplied feature thresholds for one data set (clause option,
/// paper Section 5.3: "feature thresholds … can be optionally specified …
/// if the user is familiar with any of the data sets").
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetThresholds {
    /// Data set whose functions should use these thresholds.
    pub dataset: String,
    /// Super-level threshold θ⁺.
    pub theta_pos: f64,
    /// Sub-level threshold θ⁻.
    pub theta_neg: f64,
}

/// Filter conditions applied to candidate relationships.
///
/// Defaults follow the paper: α = 0.05, |m| = 1,000 permutations, both
/// feature classes, all common resolutions, significant results only.
/// Builders compose left to right, and the whole clause has a canonical
/// PQL spelling (see [`crate::pql`]):
///
/// ```
/// use polygamy_core::prelude::*;
/// use polygamy_core::to_pql;
///
/// let clause = Clause::default()
///     .min_score(0.6)
///     .class(FeatureClass::Salient)
///     .permutations(2_000);
/// assert_eq!(clause.alpha, 0.05); // paper default, untouched
/// assert!(clause.admits_class(FeatureClass::Salient));
/// assert!(!clause.admits_class(FeatureClass::Extreme));
/// assert_eq!(
///     to_pql(&RelationshipQuery::all().with_clause(clause)),
///     "between * and * where score >= 0.6 and class = salient and permutations = 2000"
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// Minimum |τ| (0 disables).
    pub min_score: f64,
    /// Minimum ρ (0 disables).
    pub min_strength: f64,
    /// Restrict to one feature class (None = both).
    pub class: Option<FeatureClass>,
    /// Significance level α (paper default 0.05).
    pub alpha: f64,
    /// Monte Carlo permutations |m| (paper default 1,000).
    pub permutations: usize,
    /// Drop relationships that fail the significance test (default true).
    pub significant_only: bool,
    /// Restrict to specific resolutions (None = all common resolutions).
    pub resolutions: Option<Vec<Resolution>>,
    /// User-defined thresholds per data set.
    pub thresholds: Vec<DatasetThresholds>,
    /// Override the permutation scheme for this query.
    pub scheme: Option<PermutationScheme>,
}

impl Default for Clause {
    fn default() -> Self {
        Self {
            min_score: 0.0,
            min_strength: 0.0,
            class: None,
            alpha: 0.05,
            permutations: 1_000,
            significant_only: true,
            resolutions: None,
            thresholds: Vec::new(),
            scheme: None,
        }
    }
}

impl Clause {
    /// Requires |τ| ≥ `v`.
    pub fn min_score(mut self, v: f64) -> Self {
        self.min_score = v;
        self
    }

    /// Requires ρ ≥ `v`.
    pub fn min_strength(mut self, v: f64) -> Self {
        self.min_strength = v;
        self
    }

    /// Restricts to one feature class.
    pub fn class(mut self, c: FeatureClass) -> Self {
        self.class = Some(c);
        self
    }

    /// Sets the significance level.
    pub fn alpha(mut self, a: f64) -> Self {
        self.alpha = a;
        self
    }

    /// Sets the Monte Carlo permutation count.
    pub fn permutations(mut self, m: usize) -> Self {
        self.permutations = m;
        self
    }

    /// Also returns relationships that fail the significance test
    /// (marked `significant: false`).
    pub fn include_insignificant(mut self) -> Self {
        self.significant_only = false;
        self
    }

    /// Restricts evaluation to one resolution.
    pub fn at_resolution(mut self, r: Resolution) -> Self {
        self.resolutions.get_or_insert_with(Vec::new).push(r);
        self
    }

    /// Adds user-defined thresholds for a data set.
    pub fn with_thresholds(mut self, dataset: &str, theta_pos: f64, theta_neg: f64) -> Self {
        self.thresholds.push(DatasetThresholds {
            dataset: dataset.to_string(),
            theta_pos,
            theta_neg,
        });
        self
    }

    /// Overrides the permutation scheme.
    pub fn with_scheme(mut self, scheme: PermutationScheme) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// True if `resolution` passes the clause's resolution filter.
    pub fn admits_resolution(&self, resolution: Resolution) -> bool {
        self.resolutions
            .as_ref()
            .is_none_or(|rs| rs.contains(&resolution))
    }

    /// True if `class` passes the clause's class filter.
    pub fn admits_class(&self, class: FeatureClass) -> bool {
        self.class.is_none_or(|c| c == class)
    }

    /// Stable fingerprint for result caching.
    ///
    /// Cache keys are persisted on disk by `polygamy-store` sessions, so
    /// the hash is an explicit 64-bit FNV-1a over a fully specified byte
    /// stream (little-endian fields, length-prefixed strings, presence
    /// tags) — identical across processes, platforms and releases, unlike
    /// `std`'s `DefaultHasher`.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_f64(self.min_score);
        h.write_f64(self.min_strength);
        match self.class {
            None => h.write_u8(0),
            Some(FeatureClass::Salient) => h.write_u8(1),
            Some(FeatureClass::Extreme) => h.write_u8(2),
        }
        h.write_f64(self.alpha);
        h.write_usize(self.permutations);
        h.write_u8(u8::from(self.significant_only));
        match &self.resolutions {
            None => h.write_u8(0),
            Some(rs) => {
                h.write_u8(1);
                h.write_usize(rs.len());
                for r in rs {
                    h.write_u8(r.spatial.code());
                    h.write_u8(r.temporal.code());
                }
            }
        }
        h.write_usize(self.thresholds.len());
        for t in &self.thresholds {
            h.write_str(&t.dataset);
            h.write_f64(t.theta_pos);
            h.write_f64(t.theta_neg);
        }
        match self.scheme {
            None => h.write_u8(0),
            Some(PermutationScheme::Paper) => h.write_u8(1),
            Some(PermutationScheme::SpatioTemporal) => h.write_u8(2),
        }
        h.finish()
    }
}

/// A relationship query: left collection × right collection, filtered by a
/// clause. `None` collections mean "the whole corpus".
///
/// The three constructors cover the paper's query shapes, and every query
/// round-trips through its textual PQL form:
///
/// ```
/// use polygamy_core::prelude::*;
/// use polygamy_core::{parse_query, to_pql};
///
/// // Hypothesis generation: relate everything to everything.
/// let all = RelationshipQuery::all();
/// // "Find all data sets related to taxi."
/// let of = RelationshipQuery::of("taxi");
/// // Hypothesis testing between explicit collections.
/// let between = RelationshipQuery::between(&["taxi"], &["weather", "gas-prices"]);
///
/// assert_eq!(parse_query("between * and *").unwrap(), all);
/// assert_eq!(parse_query(&to_pql(&of)).unwrap(), of);
/// assert_eq!(
///     to_pql(&between),
///     "between taxi and weather, gas-prices"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelationshipQuery {
    /// D1 (None = all indexed data sets).
    pub left: Option<Vec<String>>,
    /// D2 (None = all indexed data sets).
    pub right: Option<Vec<String>>,
    /// Filter clause.
    pub clause: Clause,
}

impl RelationshipQuery {
    /// Relationships among all pairs of data sets (hypothesis generation).
    pub fn all() -> Self {
        Self::default()
    }

    /// Relationships between one data set and the whole corpus:
    /// *find all data sets related to D*.
    pub fn of(dataset: &str) -> Self {
        Self {
            left: Some(vec![dataset.to_string()]),
            right: None,
            clause: Clause::default(),
        }
    }

    /// Relationships between two explicit collections (hypothesis testing).
    pub fn between(left: &[&str], right: &[&str]) -> Self {
        Self {
            left: Some(left.iter().map(|s| s.to_string()).collect()),
            right: Some(right.iter().map(|s| s.to_string()).collect()),
            clause: Clause::default(),
        }
    }

    /// Attaches a clause.
    pub fn with_clause(mut self, clause: Clause) -> Self {
        self.clause = clause;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::{SpatialResolution, TemporalResolution};

    #[test]
    fn builders_compose() {
        let c = Clause::default()
            .min_score(0.6)
            .min_strength(0.2)
            .class(FeatureClass::Extreme)
            .alpha(0.01)
            .permutations(500)
            .include_insignificant();
        assert_eq!(c.min_score, 0.6);
        assert_eq!(c.class, Some(FeatureClass::Extreme));
        assert!(!c.significant_only);
        assert_eq!(c.permutations, 500);
    }

    #[test]
    fn admits_filters() {
        let r1 = Resolution::new(SpatialResolution::City, TemporalResolution::Week);
        let r2 = Resolution::new(SpatialResolution::City, TemporalResolution::Day);
        let c = Clause::default().at_resolution(r1);
        assert!(c.admits_resolution(r1));
        assert!(!c.admits_resolution(r2));
        assert!(Clause::default().admits_resolution(r2));
        let cc = Clause::default().class(FeatureClass::Salient);
        assert!(cc.admits_class(FeatureClass::Salient));
        assert!(!cc.admits_class(FeatureClass::Extreme));
    }

    #[test]
    fn cache_key_is_pinned() {
        // Cache keys persist on disk, so the default clause's fingerprint is
        // pinned: if this assertion fires, the key derivation changed and
        // the store format version must be bumped.
        assert_eq!(Clause::default().cache_key(), 0x8b94_2d1d_da12_4ede);
    }

    #[test]
    fn cache_keys_distinguish_clauses() {
        let a = Clause::default();
        let b = Clause::default().min_score(0.5);
        let c = Clause::default().min_score(0.5);
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(b.cache_key(), c.cache_key());
        let d = Clause::default().with_thresholds("taxi", 1.0, -1.0);
        assert_ne!(a.cache_key(), d.cache_key());
    }

    #[test]
    fn query_constructors() {
        let q = RelationshipQuery::of("taxi");
        assert_eq!(q.left, Some(vec!["taxi".to_string()]));
        assert_eq!(q.right, None);
        let q2 = RelationshipQuery::between(&["a"], &["b", "c"]);
        assert_eq!(q2.right.as_ref().unwrap().len(), 2);
        let q3 = RelationshipQuery::all();
        assert!(q3.left.is_none() && q3.right.is_none());
    }
}
