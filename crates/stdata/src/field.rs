//! Discrete time-varying scalar functions.
//!
//! A [`ScalarField`] is the discrete representation of `f : S × T → R`
//! (paper Definition 2): a dense `(regions × time steps)` array of function
//! values at one spatio-temporal resolution. Vertex `(x, z)` of the domain
//! graph (region `x` at time step `z`) maps to the flat index `z * n + x`,
//! so a time slice is contiguous.

use crate::error::{Error, Result};
use crate::resolution::Resolution;
use crate::temporal::Timestamp;

/// Policy for spatio-temporal points with no data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingPolicy {
    /// Treat missing as 0 (used by count functions: no tuples means zero
    /// activity).
    Zero,
    /// Leave missing points undefined; the domain graph excludes them
    /// (used by attribute functions, whose average is undefined without
    /// tuples).
    Exclude,
    /// Linearly interpolate interior gaps along the time axis per region;
    /// leading/trailing gaps stay undefined.
    InterpolateTime,
}

/// A dense time-varying scalar function at one resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarField {
    /// The resolution of the field.
    pub resolution: Resolution,
    /// Number of spatial regions `n`.
    pub n_regions: usize,
    /// First temporal bucket index (global bucket numbering, see
    /// [`crate::temporal::TemporalResolution::bucket_of`]).
    pub start_bucket: i64,
    /// Number of time steps `m`.
    pub n_steps: usize,
    /// Function values, time-major (`values[z * n_regions + x]`); NaN means
    /// undefined.
    pub values: Vec<f64>,
}

impl ScalarField {
    /// Creates a field with every value undefined.
    pub fn undefined(
        resolution: Resolution,
        n_regions: usize,
        start_bucket: i64,
        n_steps: usize,
    ) -> Self {
        Self {
            resolution,
            n_regions,
            start_bucket,
            n_steps,
            values: vec![f64::NAN; n_regions * n_steps],
        }
    }

    /// Creates a field filled with a constant.
    pub fn filled(
        resolution: Resolution,
        n_regions: usize,
        start_bucket: i64,
        n_steps: usize,
        value: f64,
    ) -> Self {
        Self {
            resolution,
            n_regions,
            start_bucket,
            n_steps,
            values: vec![value; n_regions * n_steps],
        }
    }

    /// Builds a pure time series field (one region).
    pub fn time_series(resolution: Resolution, start_bucket: i64, values: Vec<f64>) -> Self {
        let n_steps = values.len();
        Self {
            resolution,
            n_regions: 1,
            start_bucket,
            n_steps,
            values,
        }
    }

    /// Total number of spatio-temporal points (defined or not).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the field has no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Flat vertex index of `(region, step)`.
    #[inline]
    pub fn vertex(&self, region: usize, step: usize) -> usize {
        debug_assert!(region < self.n_regions && step < self.n_steps);
        step * self.n_regions + region
    }

    /// Inverse of [`ScalarField::vertex`].
    #[inline]
    pub fn region_step(&self, vertex: usize) -> (usize, usize) {
        (vertex % self.n_regions, vertex / self.n_regions)
    }

    /// Value at `(region, step)`.
    #[inline]
    pub fn value(&self, region: usize, step: usize) -> f64 {
        self.values[self.vertex(region, step)]
    }

    /// Sets the value at `(region, step)`.
    #[inline]
    pub fn set(&mut self, region: usize, step: usize, v: f64) {
        let idx = self.vertex(region, step);
        self.values[idx] = v;
    }

    /// Contiguous time slice for step `z`.
    pub fn slice(&self, step: usize) -> &[f64] {
        let start = step * self.n_regions;
        &self.values[start..start + self.n_regions]
    }

    /// Timestamp at which time step `z` begins.
    pub fn step_start(&self, step: usize) -> Timestamp {
        self.resolution
            .temporal
            .bucket_start(self.start_bucket + step as i64)
    }

    /// Minimum and maximum over defined values, or an error if none exist.
    pub fn range(&self) -> Result<(f64, f64)> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut any = false;
        for &v in &self.values {
            if !v.is_nan() {
                any = true;
                min = min.min(v);
                max = max.max(v);
            }
        }
        if any {
            Ok((min, max))
        } else {
            Err(Error::EmptyDomain)
        }
    }

    /// Applies a missing-data policy in place.
    pub fn apply_missing(&mut self, policy: MissingPolicy) {
        match policy {
            MissingPolicy::Zero => {
                for v in &mut self.values {
                    if v.is_nan() {
                        *v = 0.0;
                    }
                }
            }
            MissingPolicy::Exclude => {}
            MissingPolicy::InterpolateTime => self.interpolate_time(),
        }
    }

    fn interpolate_time(&mut self) {
        for region in 0..self.n_regions {
            let mut last_defined: Option<usize> = None;
            let mut z = 0;
            while z < self.n_steps {
                if !self.value(region, z).is_nan() {
                    if let Some(lo) = last_defined {
                        if z > lo + 1 {
                            let v0 = self.value(region, lo);
                            let v1 = self.value(region, z);
                            let span = (z - lo) as f64;
                            for k in (lo + 1)..z {
                                let t = (k - lo) as f64 / span;
                                self.set(region, k, v0 + (v1 - v0) * t);
                            }
                        }
                    }
                    last_defined = Some(z);
                }
                z += 1;
            }
        }
    }

    /// Extracts the city-aggregate time series from this field, summing
    /// (`sum=true`) or averaging across regions at each step. Undefined
    /// points are skipped; a step with no defined region is NaN.
    pub fn collapse_space(&self, sum: bool) -> Vec<f64> {
        (0..self.n_steps)
            .map(|z| {
                let slice = self.slice(z);
                let mut acc = 0.0;
                let mut cnt = 0usize;
                for &v in slice {
                    if !v.is_nan() {
                        acc += v;
                        cnt += 1;
                    }
                }
                if cnt == 0 {
                    f64::NAN
                } else if sum {
                    acc
                } else {
                    acc / cnt as f64
                }
            })
            .collect()
    }

    /// Approximate serialized size in bytes (the paper's Section 5.4 space
    /// accounting: one float per vertex).
    pub fn approx_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::SpatialResolution;
    use crate::temporal::TemporalResolution;

    fn res() -> Resolution {
        Resolution::new(SpatialResolution::Neighborhood, TemporalResolution::Hour)
    }

    #[test]
    fn indexing_roundtrip() {
        let f = ScalarField::undefined(res(), 5, 0, 7);
        for z in 0..7 {
            for x in 0..5 {
                let v = f.vertex(x, z);
                assert_eq!(f.region_step(v), (x, z));
            }
        }
        assert_eq!(f.len(), 35);
    }

    #[test]
    fn set_get_slice() {
        let mut f = ScalarField::filled(res(), 3, 10, 2, 0.0);
        f.set(1, 1, 42.0);
        assert_eq!(f.value(1, 1), 42.0);
        assert_eq!(f.slice(1), &[0.0, 42.0, 0.0]);
        assert!(f.values.iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn step_start_uses_bucket_numbering() {
        let f = ScalarField::undefined(res(), 1, 100, 3);
        assert_eq!(f.step_start(0), 100 * 3600);
        assert_eq!(f.step_start(2), 102 * 3600);
    }

    #[test]
    fn missing_zero() {
        let mut f = ScalarField::undefined(res(), 2, 0, 2);
        f.set(0, 0, 5.0);
        f.apply_missing(MissingPolicy::Zero);
        assert!(f.values.iter().all(|v| !v.is_nan()));
        assert_eq!(f.value(1, 1), 0.0);
        assert_eq!(f.value(0, 0), 5.0);
    }

    #[test]
    fn missing_interpolate_time() {
        let mut f = ScalarField::undefined(res(), 1, 0, 6);
        // [NaN, 2, NaN, NaN, 8, NaN] -> [NaN, 2, 4, 6, 8, NaN]
        f.set(0, 1, 2.0);
        f.set(0, 4, 8.0);
        f.apply_missing(MissingPolicy::InterpolateTime);
        assert!(f.value(0, 0).is_nan());
        assert_eq!(f.value(0, 2), 4.0);
        assert_eq!(f.value(0, 3), 6.0);
        assert!(f.value(0, 5).is_nan());
    }

    #[test]
    fn range_and_empty() {
        let mut f = ScalarField::undefined(res(), 2, 0, 2);
        assert!(f.range().is_err());
        f.set(0, 0, -1.0);
        f.set(1, 1, 3.0);
        assert_eq!(f.range().unwrap(), (-1.0, 3.0));
    }

    #[test]
    fn collapse_space_modes() {
        let mut f = ScalarField::undefined(res(), 2, 0, 2);
        f.set(0, 0, 1.0);
        f.set(1, 0, 3.0);
        f.set(0, 1, 5.0);
        assert_eq!(f.collapse_space(true), vec![4.0, 5.0]);
        assert_eq!(f.collapse_space(false), vec![2.0, 5.0]);
    }
}
