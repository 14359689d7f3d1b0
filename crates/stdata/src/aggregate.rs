//! Scalar function computation (paper Section 5.1).
//!
//! Two families of scalar functions are derived from a data set:
//!
//! * **count functions** capture the activity of the entity the data set
//!   represents: *density* (tuples per spatio-temporal point) and *unique*
//!   (distinct identifier keys per point);
//! * **attribute functions** assign each spatio-temporal point an aggregate
//!   (the paper uses the average; we also support sum/min/max/median per
//!   Section 8) over the tuples that fall on it.
//!
//! Aggregation always goes from raw records to a field at a requested
//! resolution, in the two phases of the scalar-function-computation job
//! (paper Appendix C). The *map* gives each record its spatio-temporal
//! cell once: [`RecordRegions::locate`] makes one point-in-polygon lookup
//! per record per partition, and [`Binning::new`] one bucket per record per
//! temporal resolution. The *reduce*, [`Binning::reduce`], accumulates one
//! function over a binning, in record order, so every function of a data
//! set at one resolution shares one map. [`aggregate`] is the two composed.

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::field::{MissingPolicy, ScalarField};
use crate::resolution::Resolution;
use crate::spatial::{SpatialPartition, SpatialResolution};
use crate::temporal::{TemporalResolution, Timestamp};

/// Aggregate applied by attribute functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateKind {
    /// Arithmetic mean (the paper's default).
    Mean,
    /// Sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Median.
    Median,
}

impl AggregateKind {
    /// Short label for display.
    pub fn label(self) -> &'static str {
        match self {
            AggregateKind::Mean => "avg",
            AggregateKind::Sum => "sum",
            AggregateKind::Min => "min",
            AggregateKind::Max => "max",
            AggregateKind::Median => "median",
        }
    }

    /// Stable one-byte wire code for on-disk persistence. Codes are part of
    /// the store format and must never be renumbered; add new variants with
    /// fresh codes instead.
    pub fn code(self) -> u8 {
        match self {
            AggregateKind::Mean => 0,
            AggregateKind::Sum => 1,
            AggregateKind::Min => 2,
            AggregateKind::Max => 3,
            AggregateKind::Median => 4,
        }
    }

    /// Inverse of [`AggregateKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(AggregateKind::Mean),
            1 => Some(AggregateKind::Sum),
            2 => Some(AggregateKind::Min),
            3 => Some(AggregateKind::Max),
            4 => Some(AggregateKind::Median),
            _ => None,
        }
    }
}

/// Which scalar function to derive from a data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// Number of tuples per spatio-temporal point.
    Density,
    /// Number of distinct identifier keys per spatio-temporal point.
    Unique,
    /// Aggregate of attribute `attr` per spatio-temporal point.
    Attribute {
        /// Column index into [`Dataset::attributes`].
        attr: usize,
        /// Aggregate to apply.
        agg: AggregateKind,
    },
}

impl FunctionKind {
    /// The missing-data policy the paper's semantics imply: no tuples means
    /// zero activity for count functions, but an undefined average for
    /// attribute functions.
    pub fn missing_policy(self) -> MissingPolicy {
        match self {
            FunctionKind::Density | FunctionKind::Unique => MissingPolicy::Zero,
            FunctionKind::Attribute { .. } => MissingPolicy::Exclude,
        }
    }
}

/// Computes the scalar function of `kind` for `dataset` over `partition`
/// (spatial) × `temporal` buckets, restricted to the optional half-open
/// `window`; when `window` is `None` the data set's own time range is used.
///
/// Records that fall outside the partition (GPS points not inside any
/// polygon) or outside the window are dropped, mirroring the map phase of
/// the scalar-function-computation job. This is one map and one reduce:
/// [`RecordRegions::locate`], [`Binning::new`], [`Binning::reduce`]. A
/// caller computing several functions over one domain keeps the binning
/// and reduces it once per function, with bit-identical results.
///
/// `kind` is checked first: a bad attribute index or `Unique` without keys
/// is [`Error::UnknownAttribute`] whatever the window.
pub fn aggregate(
    dataset: &Dataset,
    partition: &SpatialPartition,
    temporal: TemporalResolution,
    kind: FunctionKind,
    window: Option<(Timestamp, Timestamp)>,
) -> Result<ScalarField> {
    check_kind(dataset, kind)?;
    let regions = RecordRegions::locate(dataset, partition);
    Binning::new(&regions, temporal, window)?.reduce(kind)
}

/// [`Error::UnknownAttribute`] unless `dataset` can derive `kind`.
fn check_kind(dataset: &Dataset, kind: FunctionKind) -> Result<()> {
    if let FunctionKind::Attribute { attr, .. } = kind {
        if attr >= dataset.attribute_count() {
            return Err(Error::UnknownAttribute(format!("attribute #{attr}")));
        }
    }
    if kind == FunctionKind::Unique && !dataset.has_keys() {
        return Err(Error::UnknownAttribute("unique function needs keys".into()));
    }
    Ok(())
}

/// A record in no region or no cell: outside every polygon, or outside
/// the window.
const NO_CELL: u32 = u32::MAX;

/// Every record's region in one spatial partition — the spatial half of
/// the map, shared by every temporal resolution binned over that partition.
#[derive(Debug, Clone)]
pub struct RecordRegions<'a> {
    dataset: &'a Dataset,
    resolution: SpatialResolution,
    n_regions: usize,
    /// Per record, its region or [`NO_CELL`].
    of_record: Vec<u32>,
}

impl<'a> RecordRegions<'a> {
    /// One [`SpatialPartition::locate`] per record. A one-region partition
    /// makes none: at city scale every record belongs to the single region
    /// regardless of coordinates.
    pub fn locate(dataset: &'a Dataset, partition: &SpatialPartition) -> Self {
        let n_regions = partition.len();
        let of_record = if n_regions == 1 {
            vec![0; dataset.len()]
        } else {
            (dataset.locations().iter())
                .map(|&p| partition.locate(p).unwrap_or(NO_CELL))
                .collect()
        };
        Self {
            dataset,
            resolution: partition.resolution,
            n_regions,
            of_record,
        }
    }

    /// Point-in-polygon lookups [`RecordRegions::locate`] made.
    pub fn lookups(&self) -> usize {
        if self.n_regions == 1 {
            0
        } else {
            self.of_record.len()
        }
    }
}

/// The map of the scalar-function job: every record's cell of one
/// (data set, partition, temporal resolution, window) domain, computed
/// once and reduced by any number of functions.
#[derive(Debug, Clone)]
pub struct Binning<'a> {
    dataset: &'a Dataset,
    resolution: Resolution,
    n_regions: usize,
    start_bucket: i64,
    n_steps: usize,
    /// Per record, its cell `step * n_regions + region` or [`NO_CELL`].
    cells: Vec<u32>,
}

impl<'a> Binning<'a> {
    /// Bins the records of `regions` into `temporal` buckets over the
    /// half-open `window` (the data set's own time range when `None`): one
    /// bucket per record inside the window and the partition.
    pub fn new(
        regions: &RecordRegions<'a>,
        temporal: TemporalResolution,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<Self> {
        let dataset = regions.dataset;
        let (start, end) = match window {
            Some((s, e)) => {
                if e <= s {
                    return Err(Error::InvalidTimeRange { start: s, end: e });
                }
                (s, e)
            }
            None => dataset.time_range()?,
        };
        let start_bucket = temporal.bucket_of(start);
        let n_steps = temporal.buckets_in_range(start, end);
        if n_steps == 0 {
            return Err(Error::EmptyDomain);
        }
        let n_regions = regions.n_regions;
        // Cells are `u32`, with `NO_CELL` reserved.
        if n_regions.saturating_mul(n_steps) >= NO_CELL as usize {
            return Err(Error::InvalidTimeRange { start, end });
        }
        let cells = (dataset.times().iter().zip(&regions.of_record))
            .map(|(&t, &region)| {
                if t < start || t >= end || region == NO_CELL {
                    return NO_CELL;
                }
                let step = (temporal.bucket_of(t) - start_bucket) as usize;
                (step * n_regions) as u32 + region
            })
            .collect();
        Ok(Self {
            dataset,
            resolution: Resolution::new(regions.resolution, temporal),
            n_regions,
            start_bucket,
            n_steps,
            cells,
        })
    }

    /// Record `i`'s cell, if it has one.
    fn cell(&self, i: usize) -> Option<usize> {
        let c = self.cells[i];
        (c != NO_CELL).then_some(c as usize)
    }

    /// The reduce: accumulates the function `kind` over the binned records,
    /// in record order, into a field of this binning's domain.
    pub fn reduce(&self, kind: FunctionKind) -> Result<ScalarField> {
        let dataset = self.dataset;
        check_kind(dataset, kind)?;
        let mut field = ScalarField::undefined(
            self.resolution,
            self.n_regions,
            self.start_bucket,
            self.n_steps,
        );
        match kind {
            FunctionKind::Density => {
                let mut counts = vec![0u64; field.len()];
                for i in 0..dataset.len() {
                    if let Some(c) = self.cell(i) {
                        counts[c] += 1;
                    }
                }
                for (v, c) in field.values.iter_mut().zip(&counts) {
                    *v = *c as f64;
                }
            }
            FunctionKind::Unique => {
                let keys = dataset.keys().expect("checked above");
                let mut pairs: Vec<(u32, u64)> = Vec::new();
                for (i, &key) in keys.iter().enumerate() {
                    if let Some(c) = self.cell(i) {
                        pairs.push((c as u32, key));
                    }
                }
                pairs.sort_unstable();
                pairs.dedup();
                let mut counts = vec![0u64; field.len()];
                for (c, _) in pairs {
                    counts[c as usize] += 1;
                }
                for (v, c) in field.values.iter_mut().zip(&counts) {
                    *v = *c as f64;
                }
            }
            FunctionKind::Attribute { attr, agg } => {
                let col = dataset.column(attr);
                match agg {
                    AggregateKind::Mean | AggregateKind::Sum => {
                        let mut sums = vec![0.0f64; field.len()];
                        let mut counts = vec![0u64; field.len()];
                        for (i, &v) in col.iter().enumerate() {
                            if v.is_nan() {
                                continue;
                            }
                            if let Some(c) = self.cell(i) {
                                sums[c] += v;
                                counts[c] += 1;
                            }
                        }
                        for ((out, s), c) in field.values.iter_mut().zip(&sums).zip(&counts) {
                            if *c > 0 {
                                *out = if agg == AggregateKind::Mean {
                                    s / *c as f64
                                } else {
                                    *s
                                };
                            }
                        }
                    }
                    AggregateKind::Min | AggregateKind::Max => {
                        for (i, &v) in col.iter().enumerate() {
                            if v.is_nan() {
                                continue;
                            }
                            if let Some(c) = self.cell(i) {
                                let cur = field.values[c];
                                field.values[c] = if cur.is_nan() {
                                    v
                                } else if agg == AggregateKind::Min {
                                    cur.min(v)
                                } else {
                                    cur.max(v)
                                };
                            }
                        }
                    }
                    AggregateKind::Median => {
                        let mut pairs: Vec<(u32, f64)> = Vec::new();
                        for (i, &v) in col.iter().enumerate() {
                            if v.is_nan() {
                                continue;
                            }
                            if let Some(c) = self.cell(i) {
                                pairs.push((c as u32, v));
                            }
                        }
                        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                        let mut i = 0;
                        while i < pairs.len() {
                            let cell = pairs[i].0;
                            let mut j = i;
                            while j < pairs.len() && pairs[j].0 == cell {
                                j += 1;
                            }
                            let run = &pairs[i..j];
                            let mid = run.len() / 2;
                            let med = if run.len() % 2 == 1 {
                                run[mid].1
                            } else {
                                (run[mid - 1].1 + run[mid].1) / 2.0
                            };
                            field.values[cell as usize] = med;
                            i = j;
                        }
                    }
                }
            }
        }

        field.apply_missing(kind.missing_policy());
        Ok(field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{AttributeMeta, DatasetBuilder, DatasetMeta};
    use crate::spatial::{GeoPoint, Polygon, SpatialResolution};

    #[test]
    fn aggregate_wire_codes_roundtrip() {
        for a in [
            AggregateKind::Mean,
            AggregateKind::Sum,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Median,
        ] {
            assert_eq!(AggregateKind::from_code(a.code()), Some(a));
        }
        assert_eq!(AggregateKind::from_code(200), None);
    }

    fn partition() -> SpatialPartition {
        SpatialPartition::new(
            SpatialResolution::Neighborhood,
            vec![
                Polygon::rect(0.0, 0.0, 1.0, 1.0),
                Polygon::rect(1.0, 0.0, 2.0, 1.0),
            ],
            vec![vec![1], vec![0]],
        )
        .unwrap()
    }

    fn sample_dataset() -> Dataset {
        let meta = DatasetMeta {
            name: "taxi".into(),
            spatial_resolution: SpatialResolution::Gps,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let mut b = DatasetBuilder::new(meta)
            .attribute(AttributeMeta::named("fare"))
            .with_keys();
        // Hour 0, region 0: two trips, keys 1 and 1 (same taxi), fares 10, 20.
        b.push_keyed(1, GeoPoint::new(0.5, 0.5), 10, &[10.0])
            .unwrap();
        b.push_keyed(1, GeoPoint::new(0.6, 0.5), 20, &[20.0])
            .unwrap();
        // Hour 0, region 1: one trip, key 2, fare NaN (missing).
        b.push_keyed(2, GeoPoint::new(1.5, 0.5), 30, &[f64::NAN])
            .unwrap();
        // Hour 1, region 1: two trips, keys 2 and 3.
        b.push_keyed(2, GeoPoint::new(1.5, 0.5), 3_700, &[6.0])
            .unwrap();
        b.push_keyed(3, GeoPoint::new(1.2, 0.2), 3_800, &[8.0])
            .unwrap();
        // Outside partition: dropped.
        b.push_keyed(4, GeoPoint::new(9.0, 9.0), 100, &[99.0])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn density() {
        let d = sample_dataset();
        let f = aggregate(
            &d,
            &partition(),
            TemporalResolution::Hour,
            FunctionKind::Density,
            None,
        )
        .unwrap();
        assert_eq!(f.n_regions, 2);
        assert_eq!(f.n_steps, 2);
        assert_eq!(f.value(0, 0), 2.0);
        assert_eq!(f.value(1, 0), 1.0);
        assert_eq!(f.value(0, 1), 0.0); // zero-filled
        assert_eq!(f.value(1, 1), 2.0);
    }

    #[test]
    fn unique_counts_distinct_keys() {
        let d = sample_dataset();
        let f = aggregate(
            &d,
            &partition(),
            TemporalResolution::Hour,
            FunctionKind::Unique,
            None,
        )
        .unwrap();
        assert_eq!(f.value(0, 0), 1.0); // key 1 twice -> 1 unique
        assert_eq!(f.value(1, 1), 2.0); // keys 2, 3
    }

    #[test]
    fn attribute_mean_skips_nan() {
        let d = sample_dataset();
        let f = aggregate(
            &d,
            &partition(),
            TemporalResolution::Hour,
            FunctionKind::Attribute {
                attr: 0,
                agg: AggregateKind::Mean,
            },
            None,
        )
        .unwrap();
        assert_eq!(f.value(0, 0), 15.0);
        assert!(f.value(1, 0).is_nan()); // only a NaN fare there
        assert_eq!(f.value(1, 1), 7.0);
    }

    #[test]
    fn attribute_min_max_median() {
        let d = sample_dataset();
        let min = aggregate(
            &d,
            &partition(),
            TemporalResolution::Hour,
            FunctionKind::Attribute {
                attr: 0,
                agg: AggregateKind::Min,
            },
            None,
        )
        .unwrap();
        assert_eq!(min.value(0, 0), 10.0);
        let max = aggregate(
            &d,
            &partition(),
            TemporalResolution::Hour,
            FunctionKind::Attribute {
                attr: 0,
                agg: AggregateKind::Max,
            },
            None,
        )
        .unwrap();
        assert_eq!(max.value(0, 0), 20.0);
        let med = aggregate(
            &d,
            &partition(),
            TemporalResolution::Hour,
            FunctionKind::Attribute {
                attr: 0,
                agg: AggregateKind::Median,
            },
            None,
        )
        .unwrap();
        assert_eq!(med.value(0, 0), 15.0);
    }

    #[test]
    fn city_scale_keeps_out_of_polygon_records() {
        let d = sample_dataset();
        let city = SpatialPartition::city(0.0, 0.0, 2.0, 1.0);
        let f = aggregate(
            &d,
            &city,
            TemporalResolution::Hour,
            FunctionKind::Density,
            None,
        )
        .unwrap();
        // All 4 hour-0 records (incl. the out-of-polygon one) count at city scale.
        assert_eq!(f.value(0, 0), 4.0);
        assert_eq!(f.value(0, 1), 2.0);
    }

    #[test]
    fn window_filters_records() {
        let d = sample_dataset();
        let f = aggregate(
            &d,
            &partition(),
            TemporalResolution::Hour,
            FunctionKind::Density,
            Some((3_600, 7_200)),
        )
        .unwrap();
        assert_eq!(f.n_steps, 1);
        assert_eq!(f.value(1, 0), 2.0);
    }

    #[test]
    fn one_binning_serves_every_function() {
        let d = sample_dataset();
        let regions = RecordRegions::locate(&d, &partition());
        assert_eq!(regions.lookups(), d.len());
        let city = SpatialPartition::city(0.0, 0.0, 2.0, 1.0);
        assert_eq!(RecordRegions::locate(&d, &city).lookups(), 0);
        let binning = Binning::new(&regions, TemporalResolution::Hour, None).unwrap();
        for kind in [
            FunctionKind::Density,
            FunctionKind::Unique,
            FunctionKind::Attribute {
                attr: 0,
                agg: AggregateKind::Median,
            },
        ] {
            let standalone = aggregate(&d, &partition(), TemporalResolution::Hour, kind, None);
            // `Debug` prints every value, NaN as `NaN`.
            assert_eq!(
                format!("{:?}", binning.reduce(kind)),
                format!("{standalone:?}")
            );
        }
        let bad = FunctionKind::Attribute {
            attr: 1,
            agg: AggregateKind::Mean,
        };
        assert!(matches!(
            binning.reduce(bad),
            Err(Error::UnknownAttribute(_))
        ));
    }

    #[test]
    fn a_window_too_long_to_number_is_a_typed_error() {
        // 2 regions × 2^31 hours overflows the `u32` cell numbering: a
        // typed error, not a 34 GB field.
        let d = sample_dataset();
        let regions = RecordRegions::locate(&d, &partition());
        let window = (0, (1i64 << 31) * 3_600);
        assert_eq!(
            Binning::new(&regions, TemporalResolution::Hour, Some(window)).err(),
            Some(Error::InvalidTimeRange {
                start: window.0,
                end: window.1
            })
        );
    }

    #[test]
    fn unique_without_keys_is_error() {
        let meta = DatasetMeta {
            name: "d".into(),
            spatial_resolution: SpatialResolution::Gps,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let mut b = DatasetBuilder::new(meta);
        b.push(GeoPoint::new(0.5, 0.5), 10, &[]).unwrap();
        let d = b.build().unwrap();
        assert!(aggregate(
            &d,
            &partition(),
            TemporalResolution::Hour,
            FunctionKind::Unique,
            None
        )
        .is_err());
    }
}
