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
    /// The data set's name and the function's (`"density"`, `"unique"`,
    /// `"avg(wind-speed)"`, …), made once, where the spec is: an index
    /// entry's clones and every relationship naming it share them.
    pub name: FunctionRef,
    /// What to compute.
    pub kind: FunctionKind,
}

impl FunctionSpec {
    /// The spec of `kind` named `dataset.function`.
    pub fn new(
        dataset: impl Into<Arc<str>>,
        function: impl Into<Arc<str>>,
        kind: FunctionKind,
    ) -> Self {
        let name = FunctionRef {
            dataset: dataset.into(),
            function: function.into(),
        };
        Self { name, kind }
    }

    /// The density function of a data set.
    pub fn density(dataset: impl Into<Arc<str>>) -> Self {
        Self::new(dataset, "density", FunctionKind::Density)
    }

    /// The unique (distinct identifier count) function.
    pub fn unique(dataset: impl Into<Arc<str>>) -> Self {
        Self::new(dataset, "unique", FunctionKind::Unique)
    }

    /// An attribute function.
    pub fn attribute(
        dataset: impl Into<Arc<str>>,
        attr_index: usize,
        attr_name: &str,
        agg: AggregateKind,
    ) -> Self {
        let kind = FunctionKind::Attribute {
            attr: attr_index,
            agg,
        };
        Self::new(dataset, format!("{}({})", agg.label(), attr_name), kind)
    }

    /// Enumerates every scalar function the framework derives from a data
    /// set: density, unique (when keys exist) and the average of each
    /// numerical attribute. The specs share one data set name.
    pub fn enumerate(dataset: &Dataset) -> Vec<FunctionSpec> {
        let name: Arc<str> = dataset.meta.name.as_str().into();
        let mut out = vec![Self::density(Arc::clone(&name))];
        if dataset.has_keys() {
            out.push(Self::unique(Arc::clone(&name)));
        }
        for (i, attr) in dataset.attributes.iter().enumerate() {
            out.push(Self::attribute(
                Arc::clone(&name),
                i,
                &attr.name,
                AggregateKind::Mean,
            ));
        }
        out
    }
}

impl fmt::Display for FunctionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.name, f)
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

/// The spec's own name: a clone of its two `Arc`s.
impl From<&FunctionSpec> for FunctionRef {
    fn from(spec: &FunctionSpec) -> Self {
        spec.name.clone()
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
        let names: Vec<&str> = specs.iter().map(|s| &*s.name.function).collect();
        assert_eq!(names, vec!["density", "unique", "avg(fare)", "avg(miles)"]);
        assert!(specs.iter().all(|s| &*s.name.dataset == "taxi"));
    }

    #[test]
    fn enumerate_without_keys() {
        let specs = FunctionSpec::enumerate(&dataset(false));
        let names: Vec<&str> = specs.iter().map(|s| &*s.name.function).collect();
        assert_eq!(names, vec!["density", "avg(fare)", "avg(miles)"]);
    }

    #[test]
    fn enumerated_specs_share_one_data_set_name() {
        let specs = FunctionSpec::enumerate(&dataset(true));
        let first = &specs[0].name.dataset;
        assert!(specs.iter().all(|s| Arc::ptr_eq(&s.name.dataset, first)));
    }

    #[test]
    fn a_reference_holds_its_specs_names() {
        let spec = FunctionSpec::attribute("taxi", 0, "fare", AggregateKind::Mean);
        let r = FunctionRef::from(&spec);
        assert!(Arc::ptr_eq(&r.dataset, &spec.name.dataset));
        assert!(Arc::ptr_eq(&r.function, &spec.name.function));
        assert!(Arc::ptr_eq(
            &spec.clone().name.function,
            &spec.name.function
        ));
    }

    #[test]
    fn display_forms() {
        let spec = FunctionSpec::density("taxi");
        assert_eq!(spec.to_string(), "taxi.density");
        let r = FunctionRef::from(&spec);
        assert_eq!(r.to_string(), "taxi.density");
    }
}
