//! Topological persistence pairs (paper Section 3.3, Figure 5).
//!
//! Merge-tree construction pairs every component *creator* (an extremum)
//! with the *destroyer* (a saddle) at which its super-/sub-level-set
//! component merges into an older one. The pair's persistence
//! `|f(creator) − f(destroyer)|` is the lifetime of the feature: the height
//! of a peak or the depth of a valley.

/// One creator–destroyer pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistencePair {
    /// Vertex of the extremum that created the component.
    pub extremum: u32,
    /// Vertex of the saddle that destroyed it (for the most persistent
    /// component of each connected piece of the domain, the opposite global
    /// extremum — the conventional closing of the essential pair).
    pub partner: u32,
    /// Function value at creation, `f(extremum)`.
    pub birth: f64,
    /// Function value at destruction, `f(partner)`.
    pub death: f64,
}

impl PersistencePair {
    /// The lifetime `|birth − death|` of the feature.
    pub fn persistence(&self) -> f64 {
        (self.birth - self.death).abs()
    }
}

/// A persistence pair without its destroyer's vertex: what the thresholds
/// read of it (see [`crate::merge_tree::persistence_pairs`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremumPair {
    /// Vertex of the extremum that created the component.
    pub extremum: u32,
    /// Function value at creation.
    pub birth: f64,
    /// Function value at destruction.
    pub death: f64,
}

impl From<&PersistencePair> for ExtremumPair {
    fn from(p: &PersistencePair) -> Self {
        Self {
            extremum: p.extremum,
            birth: p.birth,
            death: p.death,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistence_is_absolute() {
        let p = PersistencePair {
            extremum: 0,
            partner: 1,
            birth: 2.0,
            death: 5.0,
        };
        assert_eq!(p.persistence(), 3.0);
        let q = PersistencePair {
            extremum: 0,
            partner: 1,
            birth: 5.0,
            death: 2.0,
        };
        assert_eq!(q.persistence(), 3.0);
    }
}
