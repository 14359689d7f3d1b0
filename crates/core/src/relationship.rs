//! Relationship evaluation: score τ and strength ρ (paper Section 2.2–2.3).
//!
//! Two functions are *feature-related* at a spatio-temporal point when the
//! point is a feature of both (Definition 9); the relation is *positive*
//! when the feature signs agree and *negative* when they disagree
//! (Definitions 10–11). Over the aligned domain:
//!
//! * **score** `τ = (#p − #n) / |Σ|` (Eq. 1) — +1 all positive, −1 all
//!   negative;
//! * **strength** `ρ = F1` (Eq. 2) — precision `|Σ|/|Σ1|` (how often a
//!   feature in f1 co-occurs with one in f2), recall `|Σ|/|Σ2|`.
//!
//! All set algebra happens on packed bit vectors (paper Appendix C), on
//! windows of the stored feature sets read in place
//! ([`FeatureWindow::intersect`]): three popcounts per 64 points give `#p`,
//! `#n` and `|Σ|`, and `|Σ1|`, `|Σ2|` are one count per operand, which
//! the executor makes once per window however many partners meet it.
//!
//! A [`Relationship`] is what a query answers, and its JSON object
//! ([`Relationship::write_json`]) is the results boundary's one writer.

use crate::function::FunctionRef;
use polygamy_json as json;
use polygamy_stdata::Resolution;
use polygamy_topology::{FeatureClass, FeatureSet, FeatureWindow, SignCounts};
use std::fmt;

/// Raw counts and derived measures of one candidate relationship.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelationshipMeasures {
    /// `#p` — positively related points.
    pub n_pos: usize,
    /// `#n` — negatively related points.
    pub n_neg: usize,
    /// `|Σ1|` — feature points of the first function.
    pub n_left: usize,
    /// `|Σ2|` — feature points of the second function.
    pub n_right: usize,
    /// Relationship score τ ∈ [−1, 1]; 0 when `|Σ| = 0`.
    pub score: f64,
    /// Relationship strength ρ ∈ [0, 1] (F1).
    pub strength: f64,
}

impl RelationshipMeasures {
    /// `|Σ| = #p + #n` — feature-related points.
    pub fn related_count(&self) -> usize {
        self.n_pos + self.n_neg
    }

    fn write_json(&self, out: &mut String) -> Result<(), json::Error> {
        out.push_str("{\"n_pos\":");
        json::write_u64(out, self.n_pos as u64);
        out.push_str(",\"n_neg\":");
        json::write_u64(out, self.n_neg as u64);
        out.push_str(",\"n_left\":");
        json::write_u64(out, self.n_left as u64);
        out.push_str(",\"n_right\":");
        json::write_u64(out, self.n_right as u64);
        out.push_str(",\"score\":");
        json::write_f64(out, self.score)?;
        out.push_str(",\"strength\":");
        json::write_f64(out, self.strength)?;
        out.push('}');
        Ok(())
    }
}

/// Evaluates τ and ρ between two aligned feature sets.
///
/// When the thresholds are non-degenerate, positive/negative sets within
/// each function are disjoint and `#p = |P1∩P2| + |N1∩N2|`,
/// `#n = |P1∩N2| + |N1∩P2|` decompose Σ exactly. Degenerate thresholds
/// (θ⁻ ≥ θ⁺, possible on pathological functions) can make a point both a
/// positive and a negative feature; the strength therefore uses the true
/// point-set intersection `|Σ| = |(P1∪N1) ∩ (P2∪N2)|`, which keeps
/// precision and recall in `[0, 1]` unconditionally.
///
/// # Panics
///
/// If the two sets differ in length.
pub fn evaluate_features(left: &FeatureSet, right: &FeatureSet) -> RelationshipMeasures {
    assert_eq!(
        left.pos.len(),
        right.pos.len(),
        "evaluate_features over a {}-bit and a {}-bit feature set",
        left.pos.len(),
        right.pos.len()
    );
    evaluate_windows(&FeatureWindow::whole(left), &FeatureWindow::whole(right))
}

/// [`evaluate_features`] on two windows of stored feature sets, read in
/// place.
///
/// # Panics
///
/// If the two windows differ in length.
pub fn evaluate_windows(
    left: &FeatureWindow<'_>,
    right: &FeatureWindow<'_>,
) -> RelationshipMeasures {
    measures(left.intersect(right), left.count(), right.count())
}

/// τ and ρ from the intersection of two windows and `|Σ1|`, `|Σ2|`.
pub(crate) fn measures(
    (signs, sigma): (SignCounts, usize),
    n_left: usize,
    n_right: usize,
) -> RelationshipMeasures {
    let SignCounts { n_pos, n_neg, .. } = signs;
    let strength = if sigma == 0 || n_left == 0 || n_right == 0 {
        0.0
    } else {
        let precision = sigma as f64 / n_left as f64;
        let recall = sigma as f64 / n_right as f64;
        2.0 * precision * recall / (precision + recall)
    };
    RelationshipMeasures {
        n_pos,
        n_neg,
        n_left,
        n_right,
        score: score(n_pos, n_neg),
        strength,
    }
}

/// Relationship score τ (Eq. 1) from the sign-agreement counts; 0 when no
/// point is feature-related.
pub(crate) fn score(n_pos: usize, n_neg: usize) -> f64 {
    if n_pos + n_neg == 0 {
        0.0
    } else {
        (n_pos as f64 - n_neg as f64) / (n_pos + n_neg) as f64
    }
}

/// A discovered relationship, as returned by queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Relationship {
    /// First function.
    pub left: FunctionRef,
    /// Second function.
    pub right: FunctionRef,
    /// Resolution at which the relationship holds.
    pub resolution: Resolution,
    /// Feature class it was evaluated over.
    pub class: FeatureClass,
    /// The measures.
    pub measures: RelationshipMeasures,
    /// Monte Carlo p-value (1.0 when the significance test was skipped by
    /// a clause pre-filter).
    pub p_value: f64,
    /// `p ≤ α` under the query's significance level.
    pub significant: bool,
}

impl Relationship {
    /// Score τ shortcut.
    pub fn score(&self) -> f64 {
        self.measures.score
    }

    /// Strength ρ shortcut.
    pub fn strength(&self) -> f64 {
        self.measures.strength
    }

    /// Appends this relationship's JSON object to `out` — the shape
    /// `docs/serving.md` §5 specifies: the fields in declaration order,
    /// each [`FunctionRef`] as `{"dataset","function"}`, the resolution as
    /// `{"spatial","temporal"}` and every unit variant as its Rust name
    /// (`"Neighborhood"`, `"Hour"`, `"Salient"`). A float of ±∞ has no
    /// JSON form and is an error.
    pub fn write_json(&self, out: &mut String) -> Result<(), json::Error> {
        out.push_str("{\"left\":");
        write_function(out, &self.left);
        out.push_str(",\"right\":");
        write_function(out, &self.right);
        out.push_str(",\"resolution\":{\"spatial\":\"");
        out.push_str(self.resolution.spatial.name());
        out.push_str("\",\"temporal\":\"");
        out.push_str(self.resolution.temporal.name());
        out.push_str("\"},\"class\":\"");
        out.push_str(self.class.name());
        out.push_str("\",\"measures\":");
        self.measures.write_json(out)?;
        out.push_str(",\"p_value\":");
        json::write_f64(out, self.p_value)?;
        out.push_str(match self.significant {
            true => ",\"significant\":true}",
            false => ",\"significant\":false}",
        });
        Ok(())
    }
}

/// Appends `relationships` to `out` as one JSON array of
/// [`Relationship::write_json`] objects.
pub fn write_json_array(
    out: &mut String,
    relationships: &[Relationship],
) -> Result<(), json::Error> {
    json::write_array(out, relationships, Relationship::write_json)
}

fn write_function(out: &mut String, function: &FunctionRef) {
    out.push_str("{\"dataset\":");
    json::write_str(out, &function.dataset);
    out.push_str(",\"function\":");
    json::write_str(out, &function.function);
    out.push('}');
}

impl fmt::Display for Relationship {
    /// Writes the paper's reporting style, e.g.
    /// `taxi.density ~ weather.avg(wind) @ (hour, city) [salient]: τ=-0.62 ρ=0.75 p=0.003`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ~ {} @ {} [{}]: τ={:.2} ρ={:.2} p={:.3}{}",
            self.left,
            self.right,
            self.resolution,
            self.class.label(),
            self.measures.score,
            self.measures.strength,
            self.p_value,
            if self.significant {
                ""
            } else {
                " (not significant)"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_topology::BitVec;

    fn fs(n: usize, pos: &[usize], neg: &[usize]) -> FeatureSet {
        let mut p = BitVec::zeros(n);
        let mut g = BitVec::zeros(n);
        for &i in pos {
            p.set(i);
        }
        for &i in neg {
            g.set(i);
        }
        FeatureSet { pos: p, neg: g }
    }

    #[test]
    fn perfectly_positive() {
        let a = fs(10, &[1, 2], &[7]);
        let b = fs(10, &[1, 2], &[7]);
        let m = evaluate_features(&a, &b);
        assert_eq!(m.n_pos, 3);
        assert_eq!(m.n_neg, 0);
        assert_eq!(m.score, 1.0);
        assert_eq!(m.strength, 1.0);
    }

    #[test]
    fn perfectly_negative() {
        // Positive features of a coincide with negative features of b.
        let a = fs(10, &[1, 2], &[7]);
        let b = fs(10, &[7], &[1, 2]);
        let m = evaluate_features(&a, &b);
        assert_eq!(m.n_pos, 0);
        assert_eq!(m.n_neg, 3);
        assert_eq!(m.score, -1.0);
        assert_eq!(m.strength, 1.0);
    }

    #[test]
    fn mixed_score() {
        let a = fs(10, &[1, 2, 3], &[]);
        let b = fs(10, &[1], &[2]);
        let m = evaluate_features(&a, &b);
        assert_eq!(m.n_pos, 1);
        assert_eq!(m.n_neg, 1);
        assert_eq!(m.score, 0.0);
        // |Σ|=2, |Σ1|=3, |Σ2|=2: precision 2/3, recall 1 → F1 = 0.8.
        assert!((m.strength - 0.8).abs() < 1e-12);
    }

    #[test]
    fn disjoint_features_score_zero() {
        let a = fs(10, &[1], &[]);
        let b = fs(10, &[5], &[]);
        let m = evaluate_features(&a, &b);
        assert_eq!(m.related_count(), 0);
        assert_eq!(m.score, 0.0);
        assert_eq!(m.strength, 0.0);
    }

    #[test]
    fn empty_side() {
        let a = fs(10, &[], &[]);
        let b = fs(10, &[1], &[2]);
        let m = evaluate_features(&a, &b);
        assert_eq!(m.score, 0.0);
        assert_eq!(m.strength, 0.0);
    }

    #[test]
    fn strength_tracks_overlap_frequency() {
        // Weak: only 1 of 5 left features co-occurs.
        let a = fs(100, &(0..5).collect::<Vec<_>>(), &[]);
        let b = fs(100, &[0], &[]);
        let weak = evaluate_features(&a, &b);
        // Strong: all 5 co-occur.
        let c = fs(100, &(0..5).collect::<Vec<_>>(), &[]);
        let strong = evaluate_features(&a, &c);
        assert!(weak.strength < strong.strength);
        assert_eq!(strong.strength, 1.0);
    }

    #[test]
    #[should_panic(expected = "evaluate_features over a 10-bit and a 9-bit feature set")]
    fn unequal_feature_sets_are_refused() {
        evaluate_features(&fs(10, &[1], &[]), &fs(9, &[1], &[]));
    }

    #[test]
    #[should_panic(expected = "sign counts of a 4-bit and a 5-bit window")]
    fn unequal_windows_are_refused() {
        let a = fs(10, &[1], &[]);
        evaluate_windows(&FeatureWindow::new(&a, 0, 4), &FeatureWindow::new(&a, 5, 5));
    }

    #[test]
    fn display_format() {
        let rel = Relationship {
            left: FunctionRef {
                dataset: "taxi".into(),
                function: "density".into(),
            },
            right: FunctionRef {
                dataset: "weather".into(),
                function: "avg(wind)".into(),
            },
            resolution: Resolution::new(
                polygamy_stdata::SpatialResolution::City,
                polygamy_stdata::TemporalResolution::Hour,
            ),
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
        };
        let s = rel.to_string();
        assert!(s.contains("taxi.density"), "{s}");
        assert!(s.contains("(hour, city)"), "{s}");
        assert!(s.contains("τ=-0.50"), "{s}");
        assert!(!s.contains("not significant"), "{s}");
    }
}
