//! Columnar spatio-temporal data sets.
//!
//! A data set `D` has attributes `{K, S, T, A1, …, Ak}` (paper Section 5.1):
//! an optional unique identifier `K`, spatial attribute `S`, temporal
//! attribute `T` and numerical attributes `Ai`. We store records columnar:
//! one vector per component, so aggregation jobs stream cache-friendly.

use crate::error::{Error, Result};
use crate::spatial::{GeoPoint, SpatialResolution};
use crate::temporal::{TemporalResolution, Timestamp};
use crate::value::Value;

/// Metadata describing one numerical attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeMeta {
    /// Attribute name (unique within the data set).
    pub name: String,
    /// Unit hint for display purposes.
    pub unit: Option<String>,
}

impl AttributeMeta {
    /// Creates attribute metadata with no unit.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            unit: None,
        }
    }
}

/// Descriptive metadata for a data set (the columns of the paper's Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// Data set name (unique within a corpus).
    pub name: String,
    /// Native spatial resolution of the raw records.
    pub spatial_resolution: SpatialResolution,
    /// Native temporal resolution of the raw records.
    pub temporal_resolution: TemporalResolution,
    /// Free-text description.
    pub description: String,
}

/// An owned view of one record, produced by [`Dataset::get`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Optional unique identifier (e.g. a taxi medallion).
    pub key: Option<u64>,
    /// Spatial location. For city-resolution data this is the city centroid.
    pub location: GeoPoint,
    /// Event timestamp.
    pub time: Timestamp,
    /// Attribute values, aligned with [`Dataset::attributes`].
    pub values: Vec<f64>,
}

/// A columnar spatio-temporal data set.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Descriptive metadata.
    pub meta: DatasetMeta,
    /// Numerical attribute schema.
    pub attributes: Vec<AttributeMeta>,
    keys: Option<Vec<u64>>,
    locations: Vec<GeoPoint>,
    times: Vec<Timestamp>,
    /// One column per attribute, each `len() == times.len()`.
    columns: Vec<Vec<f64>>,
}

impl Dataset {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the data set has no records.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of numerical attributes.
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// True if records carry a unique identifier key.
    pub fn has_keys(&self) -> bool {
        self.keys.is_some()
    }

    /// Resolves an attribute name to its column index.
    pub fn attribute_index(&self, name: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| Error::UnknownAttribute(name.to_string()))
    }

    /// Immutable view of an attribute column (NaN encodes null).
    pub fn column(&self, index: usize) -> &[f64] {
        &self.columns[index]
    }

    /// Record timestamps.
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// Record locations.
    pub fn locations(&self) -> &[GeoPoint] {
        &self.locations
    }

    /// Record keys, when present.
    pub fn keys(&self) -> Option<&[u64]> {
        self.keys.as_deref()
    }

    /// The half-open time range `[min, max+1)` covered by the records.
    pub fn time_range(&self) -> Result<(Timestamp, Timestamp)> {
        if self.is_empty() {
            return Err(Error::EmptyDomain);
        }
        let mut min = Timestamp::MAX;
        let mut max = Timestamp::MIN;
        for &t in &self.times {
            min = min.min(t);
            max = max.max(t);
        }
        Ok((min, max + 1))
    }

    /// Value of attribute `attr` for record `i`.
    pub fn value_at(&self, i: usize, attr: usize) -> Value {
        Value::decode(self.columns[attr][i])
    }

    /// Materialises record `i` as an owned [`Record`].
    pub fn get(&self, i: usize) -> Record {
        Record {
            key: self.keys.as_ref().map(|k| k[i]),
            location: self.locations[i],
            time: self.times[i],
            values: self.columns.iter().map(|c| c[i]).collect(),
        }
    }

    /// Rough in-memory size in bytes, used for the Table 1 analogue.
    pub fn approx_bytes(&self) -> usize {
        let n = self.len();
        let mut bytes = n * (std::mem::size_of::<GeoPoint>() + 8);
        if self.keys.is_some() {
            bytes += n * 8;
        }
        bytes += self.columns.len() * n * 8;
        bytes
    }

    /// Splits this data set into per-calendar-year data sets, preserving the
    /// schema. Used by the correctness experiment (paper Section 6.2), which
    /// compares the 2011 and 2012 taxi density functions.
    pub fn split_by_year(&self) -> Vec<(i32, Dataset)> {
        use crate::temporal::date_of;
        let mut out: Vec<(i32, DatasetBuilder)> = Vec::new();
        for i in 0..self.len() {
            let year = date_of(self.times[i]).year;
            let builder = match out.iter_mut().find(|(y, _)| *y == year) {
                Some((_, b)) => b,
                None => {
                    let mut meta = self.meta.clone();
                    meta.name = format!("{}-{}", meta.name, year);
                    let mut b = DatasetBuilder::new(meta);
                    for a in &self.attributes {
                        b = b.attribute(a.clone());
                    }
                    if self.has_keys() {
                        b = b.with_keys();
                    }
                    out.push((year, b));
                    &mut out.last_mut().expect("just pushed").1
                }
            };
            let values: Vec<f64> = self.columns.iter().map(|c| c[i]).collect();
            builder
                .push_record(
                    self.keys.as_ref().map(|k| k[i]),
                    self.locations[i],
                    self.times[i],
                    &values,
                )
                .expect("schema preserved");
        }
        let mut datasets: Vec<(i32, Dataset)> = out
            .into_iter()
            .map(|(y, b)| (y, b.build().expect("schema preserved")))
            .collect();
        datasets.sort_by_key(|(y, _)| *y);
        datasets
    }
}

/// Builder for [`Dataset`], enforcing schema consistency as records arrive.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    meta: DatasetMeta,
    attributes: Vec<AttributeMeta>,
    keys: Option<Vec<u64>>,
    locations: Vec<GeoPoint>,
    times: Vec<Timestamp>,
    columns: Vec<Vec<f64>>,
}

impl DatasetBuilder {
    /// Starts a builder with the given metadata and no attributes.
    pub fn new(meta: DatasetMeta) -> Self {
        Self {
            meta,
            attributes: Vec::new(),
            keys: None,
            locations: Vec::new(),
            times: Vec::new(),
            columns: Vec::new(),
        }
    }

    /// Declares a numerical attribute. Must be called before any `push`.
    pub fn attribute(mut self, meta: AttributeMeta) -> Self {
        debug_assert!(
            self.times.is_empty(),
            "attributes must be declared before records"
        );
        self.attributes.push(meta);
        self.columns.push(Vec::new());
        self
    }

    /// Declares that records carry identifier keys.
    pub fn with_keys(mut self) -> Self {
        debug_assert!(
            self.times.is_empty(),
            "keys must be declared before records"
        );
        self.keys = Some(Vec::new());
        self
    }

    /// Reserves capacity for `n` additional records.
    pub fn reserve(&mut self, n: usize) {
        self.locations.reserve(n);
        self.times.reserve(n);
        if let Some(k) = &mut self.keys {
            k.reserve(n);
        }
        for c in &mut self.columns {
            c.reserve(n);
        }
    }

    /// Appends a record with GPS location.
    pub fn push(&mut self, location: GeoPoint, time: Timestamp, values: &[f64]) -> Result<()> {
        self.push_record(None, location, time, values)
    }

    /// Appends a record with an identifier key.
    pub fn push_keyed(
        &mut self,
        key: u64,
        location: GeoPoint,
        time: Timestamp,
        values: &[f64],
    ) -> Result<()> {
        self.push_record(Some(key), location, time, values)
    }

    /// Full-control append.
    pub fn push_record(
        &mut self,
        key: Option<u64>,
        location: GeoPoint,
        time: Timestamp,
        values: &[f64],
    ) -> Result<()> {
        if values.len() != self.attributes.len() {
            return Err(Error::SchemaMismatch {
                expected: self.attributes.len(),
                found: values.len(),
            });
        }
        match (&mut self.keys, key) {
            (Some(ks), Some(k)) => ks.push(k),
            (Some(ks), None) => ks.push(0),
            (None, Some(_)) => {
                return Err(Error::SchemaMismatch {
                    expected: self.attributes.len(),
                    found: values.len(),
                })
            }
            (None, None) => {}
        }
        self.locations.push(location);
        self.times.push(time);
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        Ok(())
    }

    /// Finalises the data set.
    pub fn build(self) -> Result<Dataset> {
        Ok(Dataset {
            meta: self.meta,
            attributes: self.attributes,
            keys: self.keys,
            locations: self.locations,
            times: self.times,
            columns: self.columns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::CivilDate;

    fn meta(name: &str) -> DatasetMeta {
        DatasetMeta {
            name: name.into(),
            spatial_resolution: SpatialResolution::Gps,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        }
    }

    #[test]
    fn build_and_read() {
        let mut b = DatasetBuilder::new(meta("taxi"))
            .attribute(AttributeMeta::named("fare"))
            .attribute(AttributeMeta::named("miles"))
            .with_keys();
        b.push_keyed(7, GeoPoint::new(1.0, 2.0), 100, &[12.5, 3.1])
            .unwrap();
        b.push_keyed(9, GeoPoint::new(2.0, 3.0), 200, &[8.0, f64::NAN])
            .unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.attribute_count(), 2);
        assert_eq!(d.attribute_index("miles").unwrap(), 1);
        assert!(d.attribute_index("nope").is_err());
        assert_eq!(d.value_at(0, 0), Value::Num(12.5));
        assert_eq!(d.value_at(1, 1), Value::Null);
        assert_eq!(d.keys().unwrap(), &[7, 9]);
        assert_eq!(d.time_range().unwrap(), (100, 201));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut b = DatasetBuilder::new(meta("d")).attribute(AttributeMeta::named("a"));
        let err = b.push(GeoPoint::new(0.0, 0.0), 0, &[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            Error::SchemaMismatch {
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn key_without_declaration_rejected() {
        let mut b = DatasetBuilder::new(meta("d")).attribute(AttributeMeta::named("a"));
        assert!(b.push_keyed(1, GeoPoint::new(0.0, 0.0), 0, &[1.0]).is_err());
    }

    #[test]
    fn empty_time_range_is_error() {
        let d = DatasetBuilder::new(meta("d")).build().unwrap();
        assert!(d.time_range().is_err());
    }

    #[test]
    fn split_by_year() {
        let mut b = DatasetBuilder::new(meta("taxi")).attribute(AttributeMeta::named("fare"));
        b.push(
            GeoPoint::new(0.0, 0.0),
            CivilDate::new(2011, 6, 1).timestamp(),
            &[1.0],
        )
        .unwrap();
        b.push(
            GeoPoint::new(0.0, 0.0),
            CivilDate::new(2012, 6, 1).timestamp(),
            &[2.0],
        )
        .unwrap();
        b.push(
            GeoPoint::new(0.0, 0.0),
            CivilDate::new(2011, 7, 1).timestamp(),
            &[3.0],
        )
        .unwrap();
        let parts = b.build().unwrap().split_by_year();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, 2011);
        assert_eq!(parts[0].1.len(), 2);
        assert_eq!(parts[1].0, 2012);
        assert_eq!(parts[1].1.len(), 1);
        assert_eq!(parts[0].1.meta.name, "taxi-2011");
    }
}
