//! Spatio-temporal resolutions and the compatibility DAG (paper Figure 6).
//!
//! Resolutions form a DAG whose edges point from a higher (finer) resolution
//! to a compatible lower (coarser) one. GPS converts to zip, neighborhood
//! and city; zip and neighborhood are mutually incompatible and only convert
//! to city. Hour converts to day, week and month; day to week and month;
//! week and month are mutually incompatible.

use crate::spatial::SpatialResolution;
use crate::temporal::TemporalResolution;
use std::fmt;

/// A (spatial, temporal) resolution pair, written `(temporal, spatial)` in
/// the paper's prose (e.g. "(hour, city)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Resolution {
    /// Spatial half.
    pub spatial: SpatialResolution,
    /// Temporal half.
    pub temporal: TemporalResolution,
}

impl Resolution {
    /// Creates a resolution pair.
    pub fn new(spatial: SpatialResolution, temporal: TemporalResolution) -> Self {
        Self { spatial, temporal }
    }

    /// `(hour, city)` etc. — the paper's display convention.
    pub fn label(&self) -> String {
        format!("({}, {})", self.temporal.label(), self.spatial.label())
    }

    /// True if data at this resolution can be aggregated into `coarser`.
    pub fn convertible_to(&self, coarser: Resolution) -> bool {
        self.spatial.convertible_to(coarser.spatial)
            && self.temporal.convertible_to(coarser.temporal)
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Helpers for walking the resolution DAG.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolutionDag;

impl ResolutionDag {
    /// All evaluable resolutions reachable from a native resolution,
    /// ordered finest-first (spatial-major).
    ///
    /// This is the set of resolutions for which scalar functions are
    /// computed during indexing (paper Section 5.2): e.g. a GPS/second data
    /// set yields 3 spatial × 4 temporal = 12 resolutions.
    pub fn reachable(native: Resolution) -> Vec<Resolution> {
        let mut out = Vec::new();
        for &s in &SpatialResolution::EVALUABLE {
            if !native.spatial.convertible_to(s) {
                continue;
            }
            for &t in &TemporalResolution::ALL {
                if native.temporal.convertible_to(t) {
                    out.push(Resolution::new(s, t));
                }
            }
        }
        out
    }

    /// Resolutions at which a pair of functions with the given native
    /// resolutions can be jointly evaluated, finest-first.
    ///
    /// Per Section 5.3: when spatial resolutions are neighborhood and zip,
    /// the pair is evaluated at city scale; evaluation covers every common
    /// reachable resolution starting from the highest.
    pub fn common(a: Resolution, b: Resolution) -> Vec<Resolution> {
        let ra = Self::reachable(a);
        let rb = Self::reachable(b);
        ra.into_iter().filter(|r| rb.contains(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SpatialResolution::*;
    use TemporalResolution::*;

    #[test]
    fn gps_second_yields_twelve_resolutions() {
        // Paper Section 5.2: GPS + second → 3 spatial × 4 temporal = 12.
        let native = Resolution::new(Gps, Hour); // finest temporal we model
        assert_eq!(ResolutionDag::reachable(native).len(), 12);
    }

    #[test]
    fn city_week_native() {
        // Gas Prices: city/week native → only (week, city).
        let native = Resolution::new(City, Week);
        assert_eq!(
            ResolutionDag::reachable(native),
            vec![Resolution::new(City, Week)]
        );
    }

    #[test]
    fn city_hour_native() {
        // Weather: city/hour native → city × {hour, day, week, month}.
        let native = Resolution::new(City, Hour);
        let r = ResolutionDag::reachable(native);
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|x| x.spatial == City));
    }

    #[test]
    fn zip_and_neighborhood_meet_at_city() {
        // Paper Section 5.3's example: neighborhood × zip → city scale.
        let a = Resolution::new(Neighborhood, Hour);
        let b = Resolution::new(Zip, Hour);
        let common = ResolutionDag::common(a, b);
        assert!(!common.is_empty());
        assert!(common.iter().all(|r| r.spatial == City));
        assert_eq!(common[0], Resolution::new(City, Hour));
    }

    #[test]
    fn week_month_incompatible() {
        let a = Resolution::new(City, Week);
        let b = Resolution::new(City, Month);
        assert!(ResolutionDag::common(a, b).is_empty());
    }

    #[test]
    fn finest_first_ordering() {
        let native = Resolution::new(Gps, Hour);
        let r = ResolutionDag::reachable(native);
        assert_eq!(r[0], Resolution::new(Zip, Hour));
        assert_eq!(*r.last().unwrap(), Resolution::new(City, Month));
    }

    #[test]
    fn labels() {
        assert_eq!(Resolution::new(City, Hour).label(), "(hour, city)");
        assert_eq!(
            Resolution::new(Neighborhood, Day).label(),
            "(day, neighborhood)"
        );
    }
}
