//! Scalar-function specifications (paper Section 5.1).
//!
//! A data set `D` with attributes `{K, S, T, A1, …, Ak}` yields:
//! one *density* function, one *unique* function per identifier key, and
//! one *attribute* function per numerical attribute (the paper uses the
//! average; other aggregates are supported per Section 8).

use polygamy_stdata::{AggregateKind, Dataset, FunctionKind};
use std::fmt;
use std::sync::Arc;

/// A scalar function derived from one data set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FunctionSpec {
    /// Data set name.
    pub dataset: String,
    /// Human-readable function name (`"density"`, `"unique"`,
    /// `"avg(wind-speed)"`, …).
    pub name: String,
    /// What to compute.
    pub kind: FunctionKind,
}

impl FunctionSpec {
    /// The density function of a data set.
    pub fn density(dataset: &str) -> Self {
        Self {
            dataset: dataset.to_string(),
            name: "density".to_string(),
            kind: FunctionKind::Density,
        }
    }

    /// The unique (distinct identifier count) function.
    pub fn unique(dataset: &str) -> Self {
        Self {
            dataset: dataset.to_string(),
            name: "unique".to_string(),
            kind: FunctionKind::Unique,
        }
    }

    /// An attribute function.
    pub fn attribute(
        dataset: &str,
        attr_index: usize,
        attr_name: &str,
        agg: AggregateKind,
    ) -> Self {
        Self {
            dataset: dataset.to_string(),
            name: format!("{}({})", agg.label(), attr_name),
            kind: FunctionKind::Attribute {
                attr: attr_index,
                agg,
            },
        }
    }

    /// Enumerates every scalar function the framework derives from a data
    /// set: density, unique (when keys exist) and the average of each
    /// numerical attribute.
    pub fn enumerate(dataset: &Dataset) -> Vec<FunctionSpec> {
        let name = dataset.meta.name.as_str();
        let mut out = vec![Self::density(name)];
        if dataset.has_keys() {
            out.push(Self::unique(name));
        }
        for (i, attr) in dataset.attributes.iter().enumerate() {
            out.push(Self::attribute(name, i, &attr.name, AggregateKind::Mean));
        }
        out
    }
}

impl fmt::Display for FunctionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.dataset, self.name)
    }
}

/// A `(dataset, function)` reference used in query results.
///
/// The names are shared: cloning a reference — as every relationship a
/// query-cache hit hands out is cloned — copies two pointers, not the
/// name bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FunctionRef {
    /// Data set name.
    pub dataset: Arc<str>,
    /// Function name.
    pub function: Arc<str>,
}

impl fmt::Display for FunctionRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.dataset, self.function)
    }
}

impl From<&FunctionSpec> for FunctionRef {
    fn from(spec: &FunctionSpec) -> Self {
        Self {
            dataset: spec.dataset.as_str().into(),
            function: spec.name.as_str().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::{
        AttributeMeta, DatasetBuilder, DatasetMeta, SpatialResolution, TemporalResolution,
    };

    fn dataset(with_keys: bool) -> Dataset {
        let meta = DatasetMeta {
            name: "taxi".into(),
            spatial_resolution: SpatialResolution::Gps,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let mut b = DatasetBuilder::new(meta)
            .attribute(AttributeMeta::named("fare"))
            .attribute(AttributeMeta::named("miles"));
        if with_keys {
            b = b.with_keys();
        }
        b.build().unwrap()
    }

    #[test]
    fn enumerate_with_keys() {
        let specs = FunctionSpec::enumerate(&dataset(true));
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["density", "unique", "avg(fare)", "avg(miles)"]);
        assert!(specs.iter().all(|s| s.dataset == "taxi"));
    }

    #[test]
    fn enumerate_without_keys() {
        let specs = FunctionSpec::enumerate(&dataset(false));
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["density", "avg(fare)", "avg(miles)"]);
    }

    #[test]
    fn display_forms() {
        let spec = FunctionSpec::density("taxi");
        assert_eq!(spec.to_string(), "taxi.density");
        let r = FunctionRef::from(&spec);
        assert_eq!(r.to_string(), "taxi.density");
    }
}
